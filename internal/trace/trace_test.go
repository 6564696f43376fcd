package trace

import "testing"

func TestMergeTieBreakDeterministic(t *testing.T) {
	// Events with equal timestamps from different producers must merge
	// stably by producer id, then per-producer sequence — regardless of
	// the order the streams are handed in.
	a := []Event{{Time: 5, Producer: 2, Seq: 0}, {Time: 5, Producer: 2, Seq: 1}}
	b := []Event{{Time: 5, Producer: 0, Seq: 0}, {Time: 7, Producer: 0, Seq: 1}}
	c := []Event{{Time: 5, Producer: 1, Seq: 0}}
	want := []Event{
		{Time: 5, Producer: 0, Seq: 0},
		{Time: 5, Producer: 1, Seq: 0},
		{Time: 5, Producer: 2, Seq: 0},
		{Time: 5, Producer: 2, Seq: 1},
		{Time: 7, Producer: 0, Seq: 1},
	}
	for _, streams := range [][][]Event{{a, b, c}, {c, b, a}, {b, a, c}} {
		got := Merge(streams[0], streams[1], streams[2])
		if len(got) != len(want) {
			t.Fatalf("merged %d events, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("merge order differs at %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if KindSteal.String() != "steal" {
		t.Errorf("KindSteal.String() = %q", KindSteal.String())
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should still render")
	}
}
