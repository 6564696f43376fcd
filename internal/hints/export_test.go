package hints

import (
	"strings"
	"testing"
)

const roundTripScript = `# demo knowledge base
fact cache.miss_rate 0.37
fact loop.trip_count 4096
hint tiling target=compiler category=computation-pattern priority=70 tile=64 strategy=static-block
hint prefetch target=runtime category=access-pattern priority=40 distance=8
rule tiling when cache.miss_rate > 0.25 set tile=32
rule prefetch when loop.trip_count >= 1024 set distance=16
`

func TestWriteScriptRoundTrip(t *testing.T) {
	db := NewDB()
	if err := ParseScriptString(roundTripScript, db); err != nil {
		t.Fatal(err)
	}
	out1, err := db.ScriptString()
	if err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	if err := ParseScriptString(out1, db2); err != nil {
		t.Fatalf("re-parse of exported script: %v\nscript:\n%s", err, out1)
	}
	out2, err := db2.ScriptString()
	if err != nil {
		t.Fatal(err)
	}
	// parse -> export -> parse -> export must be a fixed point: the
	// second export proves the re-parsed DB is equivalent to the first.
	if out1 != out2 {
		t.Fatalf("export not a fixed point:\nfirst:\n%s\nsecond:\n%s", out1, out2)
	}
	// And spot-check semantic equivalence, not just syntactic.
	if v, ok := db2.Fact("cache.miss_rate"); !ok || v != 0.37 {
		t.Fatalf("fact lost in round trip: %v %v", v, ok)
	}
	h, ok := db2.Hint("tiling")
	if !ok || h.Priority != 70 || h.Params["tile"] != "64" || len(h.Rules) != 1 {
		t.Fatalf("hint mangled in round trip: %+v", h)
	}
	eff := db2.Effective(TargetCompiler, CatComputation)
	if eff["tile"] != "32" { // rule fires: miss_rate 0.37 > 0.25
		t.Fatalf("rule lost in round trip: effective=%v", eff)
	}
}

func TestWriteScriptDeterministic(t *testing.T) {
	build := func() *DB {
		db := NewDB()
		db.SetFact("b", 2)
		db.SetFact("a", 1.5)
		for _, name := range []string{"zeta", "alpha", "mid"} {
			if err := db.AddHint(&Hint{
				Name: name, Target: TargetRuntime, Category: CatAccess, Priority: 10,
				Params: map[string]string{"y": "2", "x": "1"},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	s1, err := build().ScriptString()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := build().ScriptString()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("export not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	lines := strings.Split(strings.TrimSpace(s1), "\n")
	want := []string{"fact a 1.5", "fact b 2"}
	for i, w := range want {
		if lines[i] != w {
			t.Fatalf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestWriteScriptRejectsUnrepresentable(t *testing.T) {
	db := NewDB()
	db.SetFact("has space", 1)
	if _, err := db.ScriptString(); err == nil {
		t.Fatal("expected error for fact name with a space")
	}
}

// FuzzParseScript feeds arbitrary text to the script parser htserved's
// -hints-file reads from disk. Whatever parses and writes back must be
// the fixed point of the round trip: its ScriptString re-parses, and to
// the same ScriptString.
func FuzzParseScript(f *testing.F) {
	f.Add(roundTripScript)
	f.Add("fact x NaN\nfact y 0x1p-2\nhint h target=runtime category=locality priority=+5 =v k==\nrule h when x == -Inf set =w\n")
	f.Add("hint h target=compiler category=locality priority=5\nrule h when x > 1 set a=b\nhint h target=runtime category=access-pattern priority=1\n")
	f.Fuzz(func(t *testing.T, script string) {
		db := NewDB()
		if ParseScriptString(script, db) != nil {
			return
		}
		out1, err := db.ScriptString()
		if err != nil {
			return // parsed, but not representable: WriteScript refuses it
		}
		db2 := NewDB()
		if err := ParseScriptString(out1, db2); err != nil {
			t.Fatalf("re-parse of written script: %v\nscript:\n%s", err, out1)
		}
		out2, err := db2.ScriptString()
		if err != nil {
			t.Fatalf("write of re-parsed script: %v\nscript:\n%s", err, out1)
		}
		if out1 != out2 {
			t.Fatalf("round trip not a fixed point:\nfirst:\n%s\nsecond:\n%s", out1, out2)
		}
	})
}
