package workload

import (
	"strings"
	"testing"
)

const validHash = "0000000000000000000000000000000000000000000000000000000000000000"

// validSuiteDoc is a minimal well-formed registry used as the base for the
// table-driven mutations below.
const validSuiteDoc = `
# a comment
[[suite]]
name = "backprop"
seed = 1
scale = 0.05
invariant = "` + validHash + `"

[[suite]]
name = "skew"
family = "skewed-sharing"
scale = 0.5
invariant = "` + validHash + `"

[suite.params]
theta = 0.99 # trailing comment
`

func TestParseSuitesValid(t *testing.T) {
	r, err := ParseSuites([]byte(validSuiteDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(r.Entries))
	}
	e, ok := r.ByName("skew")
	if !ok {
		t.Fatal("skew entry missing")
	}
	if e.Family != "skewed-sharing" || e.Seed != 1 || e.Scale != 0.5 {
		t.Fatalf("skew entry fields wrong: %+v", e)
	}
	if e.Params["theta"] != 0.99 {
		t.Fatalf("params not parsed: %v", e.Params)
	}
	bm, err := e.Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	if bm.Name != "skew" || bm.Kind != Synthetic || bm.Family != "skewed-sharing" {
		t.Fatalf("resolved benchmark wrong: %+v", bm)
	}
	if b, ok := r.ByName("backprop"); !ok || b.Family != "" {
		t.Fatalf("backprop entry wrong: %+v (ok=%v)", b, ok)
	}
}

// TestParseSuitesErrors drives every validation path: each malformed
// document must return an error mentioning the expected fragment, and must
// never panic.
func TestParseSuitesErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"empty", "", "no [[suite]] entries"},
		{"comment only", "# nothing\n", "no [[suite]] entries"},
		{"key outside entry", `name = "x"`, "outside a [[suite]] entry"},
		{"params outside entry", "[suite.params]", "outside a [[suite]] entry"},
		{"unknown table", "[other]", "unsupported table"},
		{"unknown key", "[[suite]]\nbogus = 1", "unknown key bogus"},
		{"no value", "[[suite]]\nname =", "no value"},
		{"no equals", "[[suite]]\njust words", "expected key = value"},
		{"bad key chars", "[[suite]]\n\"na me\" = 1", "malformed key"},
		{"unterminated string", `[[suite]]` + "\n" + `name = "x`, "malformed string"},
		{"escape in string", `[[suite]]` + "\n" + `name = "a\"b"`, "escapes are not supported"},
		{"seed not integer", "[[suite]]\nseed = 1.5", "not a non-negative integer"},
		{"seed negative", "[[suite]]\nseed = -1", "not a non-negative integer"},
		{"scale not number", `[[suite]]` + "\n" + `scale = "big"`, "not a number"},
		{"missing name", "[[suite]]\ninvariant = \"" + validHash + "\"", "no name"},
		{"scale zero", "[[suite]]\nname = \"backprop\"\nscale = 0\ninvariant = \"" + validHash + "\"", "out of (0, 1]"},
		{"scale above one", "[[suite]]\nname = \"backprop\"\nscale = 2\ninvariant = \"" + validHash + "\"", "out of (0, 1]"},
		{"missing hash", "[[suite]]\nname = \"backprop\"", "missing invariant hash"},
		{"short hash", "[[suite]]\nname = \"backprop\"\ninvariant = \"abc123\"", "64 lowercase hex"},
		{"non-hex hash", "[[suite]]\nname = \"backprop\"\ninvariant = \"" + strings.Repeat("z", 64) + "\"", "64 lowercase hex"},
		{"unknown benchmark", "[[suite]]\nname = \"nosuch\"\ninvariant = \"" + validHash + "\"", "unknown benchmark"},
		{"unknown family", "[[suite]]\nname = \"x\"\nfamily = \"nosuch\"\ninvariant = \"" + validHash + "\"", "unknown family"},
		{"unknown family param", "[[suite]]\nname = \"x\"\nfamily = \"pipeline\"\ninvariant = \"" + validHash + "\"\n[suite.params]\nbogus = 1", "no parameter"},
		{"param out of range", "[[suite]]\nname = \"x\"\nfamily = \"pipeline\"\ninvariant = \"" + validHash + "\"\n[suite.params]\ntokens = 99999", "out of range"},
		{"param not number", "[[suite]]\nname = \"x\"\nfamily = \"pipeline\"\ninvariant = \"" + validHash + "\"\n[suite.params]\ntokens = \"many\"", "not a number"},
		{"params without family", "[[suite]]\nname = \"backprop\"\ninvariant = \"" + validHash + "\"\n[suite.params]\ntheta = 1", "requires a family"},
		{"duplicate params table", "[[suite]]\nname = \"x\"\nfamily = \"pipeline\"\n[suite.params]\n[suite.params]", "duplicate [suite.params]"},
		{"duplicate param key", "[[suite]]\nname = \"x\"\nfamily = \"pipeline\"\n[suite.params]\ntokens = 1\ntokens = 2", "duplicate parameter"},
		{"duplicate name", validSuiteDoc + "\n[[suite]]\nname = \"skew\"\nfamily = \"pipeline\"\ninvariant = \"" + validHash + "\"", "duplicate suite name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := ParseSuites([]byte(c.doc))
			if err == nil {
				t.Fatalf("parsed without error: %+v", r.Entries)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestParseSuitesLineNumbers checks errors carry the offending line.
func TestParseSuitesLineNumbers(t *testing.T) {
	doc := "\n\n[[suite]]\nname = \"backprop\"\nbogus = 1\n"
	_, err := ParseSuites([]byte(doc))
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error %v does not name line 5", err)
	}
}

// TestDefaultSuites locks the embedded registry's shape: it parses, holds
// every uniquely-named fixed-suite benchmark plus the four families, and
// every entry resolves to a buildable benchmark.
func TestDefaultSuites(t *testing.T) {
	reg, err := DefaultSuites()
	if err != nil {
		t.Fatal(err)
	}
	fams := 0
	for _, e := range reg.Entries {
		if e.Family != "" {
			fams++
		}
		bm, err := e.Benchmark()
		if err != nil {
			t.Fatalf("entry %s: %v", e.Name, err)
		}
		p := bm.Build(e.Seed, 0.02)
		if err := Validate(p); err != nil {
			t.Fatalf("entry %s: %v", e.Name, err)
		}
	}
	if fams != len(Families()) {
		t.Fatalf("registry has %d family entries, want %d", fams, len(Families()))
	}
	// Every fixed-suite benchmark has a registry entry, except Parsec's
	// streamcluster: an entry adds a program to every registry-driven run
	// (the golden harness, the benchmark's validate workload), so it lands
	// with the next benchmark change.
	for _, b := range Suite() {
		if b.Name == "streamcluster-parsec" {
			continue
		}
		if _, ok := reg.ByName(b.Name); !ok {
			t.Errorf("benchmark %s has no registry entry", b.Name)
		}
	}
}

func TestResolveBenchmark(t *testing.T) {
	if bm, err := ResolveBenchmark("backprop"); err != nil || bm.Kind != Rodinia {
		t.Fatalf("builtin resolution: %+v, %v", bm, err)
	}
	if bm, err := ResolveBenchmark("skewed-sharing"); err != nil || bm.Kind != Synthetic {
		t.Fatalf("registry resolution: %+v, %v", bm, err)
	}
	if _, err := ResolveBenchmark("nosuch"); err == nil ||
		!strings.Contains(err.Error(), "skewed-sharing") {
		t.Fatalf("unknown-name error should list registry names, got %v", err)
	}
}

// FuzzParseSuites asserts the loader never panics on arbitrary input: it
// either parses or returns an error.
func FuzzParseSuites(f *testing.F) {
	f.Add([]byte(validSuiteDoc))
	f.Add([]byte(""))
	f.Add([]byte("[[suite]]"))
	f.Add([]byte("[[suite]]\nname = \"backprop\"\ninvariant = \"" + validHash + "\""))
	f.Add([]byte("[suite.params]\nx = 1"))
	f.Add([]byte("[[suite]]\nname = \"x\"\nfamily = \"pipeline\"\n[suite.params]\ntokens = 1e309"))
	f.Add(defaultSuitesTOML)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseSuites(data)
		if err == nil && len(r.Entries) == 0 {
			t.Fatal("nil error with empty registry")
		}
	})
}
