package bfunc

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParsePLA checks that arbitrary input never panics the parser and
// that anything it accepts survives a write/re-parse round trip.
func FuzzParsePLA(f *testing.F) {
	f.Add(samplePLA)
	f.Add(".i 2\n.o 1\n11 1\n.e\n")
	f.Add(".i 3\n.o 2\n.type fr\n1-0 01\n--- 11\n.end\n")
	f.Add(".i 1\n.o 1\n0 -\n")
	f.Add("# only a comment\n")
	f.Add(".i 64\n.o 1\n")
	f.Add(".i 3\n.o 20700700000\n")
	f.Add(dashCubePLA)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParsePLA(strings.NewReader(src), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePLA(&buf, m); err != nil {
			t.Fatalf("accepted design failed to serialize: %v", err)
		}
		m2, err := ParsePLA(bytes.NewReader(buf.Bytes()), "fuzz2")
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, buf.String())
		}
		if m2.Inputs != m.Inputs || m2.NOutputs() != m.NOutputs() {
			t.Fatalf("round trip changed shape")
		}
		for o := 0; o < m.NOutputs(); o++ {
			if !m.Output(o).Equal(m2.Output(o)) {
				t.Fatalf("round trip changed output %d", o)
			}
		}
	})
}
