// Package bench provides the benchmark functions for the experiment
// harness. The paper evaluates on the Espresso/MCNC suite, whose PLA
// files cannot be redistributed here; per DESIGN.md §4 the registry
// substitutes two tiers with the historical input/output dimensions:
//
//   - tier 1, known semantics: arithmetic and cellular functions whose
//     logic is public knowledge (adders, multiplier, square root,
//     distance, Conway's life) — exactly the XOR-rich class on which the
//     paper highlights SPP wins (adr4, radd, life, …);
//   - tier 2, deterministic synthetics: seeded unions of random
//     pseudoproducts and cubes for names whose logic content is not
//     public, preserving the size/density the algorithms are stressed
//     with. newtpla2 is generated from scattered minterms to reproduce
//     its historical "SPP equals SP" worst-case behaviour.
//
// Real .pla files, when available, are minimized by sppmin directly
// (sppmin design.pla).
package bench

import (
	"fmt"
	"sort"

	"repro/internal/bfunc"
)

// Info describes a registered benchmark.
type Info struct {
	Name    string
	Inputs  int
	Outputs int
	// Tier is 1 for known-semantics reconstructions, 2 for seeded
	// synthetics (see the package comment).
	Tier int
	// Desc is a one-line description of what the generator builds.
	Desc string

	build func() *bfunc.Multi
}

var registry = map[string]Info{}

func register(info Info) {
	if _, dup := registry[info.Name]; dup {
		panic("bench: duplicate benchmark " + info.Name)
	}
	registry[info.Name] = info
}

// Names lists the registered benchmarks in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the registration info for name.
func Lookup(name string) (Info, bool) {
	i, ok := registry[name]
	return i, ok
}

// Load builds the named benchmark. Generation is deterministic: the
// same name always yields the same function.
func Load(name string) (*bfunc.Multi, error) {
	info, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q (have %v)", name, Names())
	}
	m := info.build()
	if m.Inputs != info.Inputs || m.NOutputs() != info.Outputs {
		panic(fmt.Sprintf("bench: %s generator produced %d/%d, registered %d/%d",
			name, m.Inputs, m.NOutputs(), info.Inputs, info.Outputs))
	}
	return m, nil
}

// MustLoad is Load, panicking on unknown names (registry is static, so
// failure is a programming error).
func MustLoad(name string) *bfunc.Multi {
	m, err := Load(name)
	if err != nil {
		panic(err)
	}
	return m
}
