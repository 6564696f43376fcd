package clock

import (
	"testing"
	"time"
)

// A shed check is now > deadline: Never, the deadline of none, must be
// one no reading passes, and a far but real deadline must saturate
// towards it, not wrap into the past.
func TestNeverNeverExpires(t *testing.T) {
	if far := Of(time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)); far <= Now() {
		t.Fatalf("Of(year 9999) = %d, not after Now", far)
	}
	if got := Of(time.Time{}); got != Never {
		t.Fatalf("Of(zero Time) = %d, want Never", got)
	}
	if !Never.Time().IsZero() || Never.Unix() != 0 || FromUnix(0) != Never {
		t.Fatal("Never does not map to the zero Time and to unix 0")
	}
}

func TestNowIsMonotonic(t *testing.T) {
	a := Now()
	b := Now()
	if b < a {
		t.Fatalf("Now went back: %d then %d", a, b)
	}
}

func TestUnixRoundTripIsExact(t *testing.T) {
	for _, n := range []Nanos{0, 1, Now(), Now() + Nanos(time.Hour), -Nanos(time.Minute)} {
		if got := FromUnix(n.Unix()); got != n {
			t.Errorf("FromUnix(%d.Unix()) = %d", n, got)
		}
		if got := Of(n.Time()); got != n {
			t.Errorf("Of(%d.Time()) = %d", n, got)
		}
	}
}

// A deadline that arrives off the wire is a wall-only time.Time (what
// time.Unix builds); it must name the same instant as its monotonic
// twin.
func TestWallOnlyTimeMatchesMonotonicTwin(t *testing.T) {
	mono := time.Now().Add(time.Second)
	wall := time.Unix(0, mono.UnixNano())
	if d := time.Duration(Of(wall) - Of(mono)).Abs(); d > time.Millisecond {
		t.Fatalf("wall-only and monotonic times differ by %v", d)
	}
	if d := time.Duration(FromUnix(mono.UnixNano()) - Of(mono)).Abs(); d > time.Millisecond {
		t.Fatalf("FromUnix and Of differ by %v", d)
	}
	if !Of(mono).Time().Equal(mono) {
		t.Fatal("Time does not return the instant Of was given")
	}
}
