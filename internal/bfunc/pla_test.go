package bfunc

import (
	"bytes"
	"strings"
	"testing"
)

const samplePLA = `# tiny test pla
.i 3
.o 2
.ilb a b c
.ob f g
.p 4
110 10
-01 11
111 0-
000 01
.e
`

func TestParsePLABasic(t *testing.T) {
	m, err := ParsePLA(strings.NewReader(samplePLA), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if m.Inputs != 3 || m.NOutputs() != 2 {
		t.Fatalf("dims %d/%d", m.Inputs, m.NOutputs())
	}
	f, g := m.Output(0), m.Output(1)
	// 110 -> point with a=1,b=1,c=0 -> packed 0b110 = 6
	if !f.IsOn(6) {
		t.Errorf("f(110) should be ON")
	}
	// -01 expands to 001=1 and 101=5, both outputs ON
	for _, p := range []uint64{1, 5} {
		if !f.IsOn(p) || !g.IsOn(p) {
			t.Errorf("point %03b should be ON for both", p)
		}
	}
	// 111 -> f OFF (char 0), g DC (char -)
	if f.IsOn(7) || f.IsDC(7) {
		t.Errorf("f(111) should be OFF")
	}
	if !g.IsDC(7) {
		t.Errorf("g(111) should be DC")
	}
	// 000 -> g ON
	if !g.IsOn(0) || f.IsOn(0) {
		t.Errorf("000 outputs wrong")
	}
}

func TestParsePLAJoined(t *testing.T) {
	src := ".i 2\n.o 1\n101\n.e\n"
	m, err := ParsePLA(strings.NewReader(src), "joined")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Output(0).IsOn(2) {
		t.Fatalf("joined term 101 should put 10 in ON")
	}
	// A term whose run-together width is wrong must error.
	if _, err := ParsePLA(strings.NewReader(".i 2\n.o 1\n1101\n.e\n"), "bad"); err == nil {
		t.Fatal("expected error for unsplittable term")
	}
}

func TestParsePLAErrors(t *testing.T) {
	cases := []string{
		".o 1\n10 1\n",            // .i missing
		".i 2\n.o 1\n10x 1\n.e\n", // bad width
		".i 2\n.o 1\n1x 1\n.e\n",  // bad char
		".i 2\n.o 1\n10 x\n.e\n",  // bad output char
		".i abc\n.o 1\n",          // bad .i
		".i 2\n.o 1\n10 11\n.e\n", // output too wide
	}
	for i, src := range cases {
		if _, err := ParsePLA(strings.NewReader(src), "bad"); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPLARoundTrip(t *testing.T) {
	m, err := ParsePLA(strings.NewReader(samplePLA), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePLA(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ParsePLA(bytes.NewReader(buf.Bytes()), "tiny2")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	for o := 0; o < m.NOutputs(); o++ {
		if !m.Output(o).Equal(m2.Output(o)) {
			t.Errorf("output %d not preserved by round trip\n%s", o, buf.String())
		}
	}
}

func TestParsePLATypeFR(t *testing.T) {
	// In type fr, '-' outputs are not DC.
	src := ".i 2\n.o 1\n.type fr\n11 -\n10 1\n.e\n"
	m, err := ParsePLA(strings.NewReader(src), "fr")
	if err != nil {
		t.Fatal(err)
	}
	f := m.Output(0)
	if f.IsDC(3) {
		t.Errorf("type fr must not create DC entries")
	}
	if !f.IsOn(2) {
		t.Errorf("10 should be ON")
	}
}

// BenchmarkParsePLA parses the PLA of a 4×4-bit multiplier (8 inputs,
// 8 outputs, one line per ON minterm, as WritePLA writes it), with
// allocations reported.
func BenchmarkParsePLA(b *testing.B) {
	outs := make([]*Func, 8)
	for o := range outs {
		outs[o] = FromPredicate(8, func(p uint64) bool { return (p>>4)*(p&15)>>uint(o)&1 != 0 })
	}
	var buf bytes.Buffer
	if err := WritePLA(&buf, NewMulti("mlp4", 8, outs)); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePLA(bytes.NewReader(src), "mlp4"); err != nil {
			b.Fatal(err)
		}
	}
}
