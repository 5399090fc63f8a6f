package bfunc

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bitvec"
)

// plaMaxLine caps the length of one PLA line, and so the number of
// outputs a term line can carry.
const plaMaxLine = 1 << 20

// maxPLAMinterms caps the ON and DC minterms ParsePLA expands, summed
// over all outputs.
const maxPLAMinterms = 1 << 20

// ParsePLA reads a Boolean function in the Berkeley/Espresso PLA format
// (the format of the benchmark suite the paper evaluates on). Supported
// directives: .i, .o, .p (ignored count), .ilb, .ob, .type (f, fr, fd,
// fdr), .e/.end. Product terms use 0/1/- for inputs and 0/1/-/~/2/4 for
// outputs per Espresso conventions:
//
//	1 → term in ON-set of that output
//	0 → OFF (type fr/fdr) or ignored (type f/fd)
//	- or 2 → term in DC-set of that output (types fd, fdr)
//	~ or 4 → no meaning for this output
//
// Input cubes with '-' expand to all covered minterms, so functions must
// be small enough to enumerate (the SPP algorithms are explicit anyway):
// ParsePLA fails once the expanded ON and DC minterms, summed over all
// outputs, pass maxPLAMinterms (2^20, about 30 times the largest
// built-in benchmark). It also rejects an .o count wider than a line,
// which no term could carry.
func ParsePLA(r io.Reader, name string) (*Multi, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, plaMaxLine), plaMaxLine)

	ni, no := -1, -1
	typ := "fd"
	var onSets, dcSets [][]uint64
	lineNo := 0
	minterms := 0 // ON and DC minterms expanded so far, over all outputs
	tooLarge := fmt.Errorf("more than %d ON and DC minterms", maxPLAMinterms)

	addTerm := func(in string, out string) error {
		if len(in) != ni {
			return fmt.Errorf("input part %q has %d columns, want %d", in, len(in), ni)
		}
		if len(out) != no {
			return fmt.Errorf("output part %q has %d columns, want %d", out, len(out), no)
		}
		free := strings.Count(in, "-") + strings.Count(in, "2")
		if free > 62 || minterms+1<<free > maxPLAMinterms {
			return tooLarge
		}
		// Expand the input cube into minterms.
		pts := []uint64{0}
		for i := 0; i < ni; i++ {
			switch in[i] {
			case '0':
				// leave bit 0
			case '1':
				for j := range pts {
					pts[j] = bitvec.SetBit(pts[j], ni, i, 1)
				}
			case '-', '2':
				ext := make([]uint64, len(pts))
				for j, p := range pts {
					ext[j] = bitvec.SetBit(p, ni, i, 1)
				}
				pts = append(pts, ext...)
			default:
				return fmt.Errorf("invalid input character %q", in[i])
			}
		}
		for o := 0; o < no; o++ {
			switch out[o] {
			case '1':
				minterms += len(pts)
				onSets[o] = append(onSets[o], pts...)
			case '-', '2':
				if typ == "fd" || typ == "fdr" {
					minterms += len(pts)
					dcSets[o] = append(dcSets[o], pts...)
				}
			case '0', '~', '4':
				// OFF or no-meaning: nothing to record (explicit OFF is
				// the complement for fr-type; we reconstruct OFF as the
				// complement of ON ∪ DC, which is equivalent once all
				// terms are read).
			default:
				return fmt.Errorf("invalid output character %q", out[o])
			}
			if minterms > maxPLAMinterms {
				return tooLarge
			}
		}
		return nil
	}

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, ".") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".i":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla %s:%d: malformed .i", name, lineNo)
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 1 || v > bitvec.MaxVars {
					return nil, fmt.Errorf("pla %s:%d: bad input count %q", name, lineNo, fields[1])
				}
				ni = v
			case ".o":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla %s:%d: malformed .o", name, lineNo)
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 1 || v >= plaMaxLine {
					return nil, fmt.Errorf("pla %s:%d: bad output count %q", name, lineNo, fields[1])
				}
				no = v
				onSets = make([][]uint64, no)
				dcSets = make([][]uint64, no)
			case ".type":
				if len(fields) == 2 {
					typ = fields[1]
				}
			case ".p", ".ilb", ".ob", ".lb", ".phase", ".pair", ".symbolic":
				// Counts and labels are informational for us.
			case ".e", ".end":
				goto done
			default:
				// Unknown directive: skip, as Espresso tools do.
			}
			continue
		}
		if ni < 0 || no < 0 {
			return nil, fmt.Errorf("pla %s:%d: product term before .i/.o", name, lineNo)
		}
		// A term is "inputs outputs" with optional whitespace split; some
		// files run them together when there is exactly one space.
		fields := strings.Fields(line)
		var in, out string
		switch len(fields) {
		case 2:
			in, out = fields[0], fields[1]
		case 1:
			if len(fields[0]) != ni+no {
				return nil, fmt.Errorf("pla %s:%d: cannot split term %q", name, lineNo, line)
			}
			in, out = fields[0][:ni], fields[0][ni:]
		default:
			// Inputs may be space-separated from outputs with inner
			// spaces in some dialects: join all but last.
			in = strings.Join(fields[:len(fields)-1], "")
			out = fields[len(fields)-1]
		}
		if err := addTerm(in, out); err != nil {
			return nil, fmt.Errorf("pla %s:%d: %v", name, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pla %s: %v", name, err)
	}
done:
	if ni < 0 || no < 0 {
		return nil, fmt.Errorf("pla %s: missing .i or .o", name)
	}
	outs := make([]*Func, no)
	for o := 0; o < no; o++ {
		outs[o] = NewDC(ni, onSets[o], dcSets[o])
	}
	return NewMulti(name, ni, outs), nil
}

// WritePLA writes m in minterm-per-line PLA format (type fd). The output
// is canonical: terms sorted by input value, one line per care minterm
// of any output.
func WritePLA(w io.Writer, m *Multi) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n.i %d\n.o %d\n.type fd\n", m.Name, m.Inputs, len(m.Outputs))

	type rowT struct {
		pt  uint64
		out []byte
	}
	rows := map[uint64][]byte{}
	blank := func() []byte {
		b := make([]byte, len(m.Outputs))
		for i := range b {
			b[i] = '~'
		}
		return b
	}
	for o, f := range m.Outputs {
		for _, p := range f.On() {
			r, ok := rows[p]
			if !ok {
				r = blank()
				rows[p] = r
			}
			r[o] = '1'
		}
		for _, p := range f.DC() {
			r, ok := rows[p]
			if !ok {
				r = blank()
				rows[p] = r
			}
			r[o] = '-'
		}
	}
	sorted := make([]rowT, 0, len(rows))
	for p, out := range rows {
		sorted = append(sorted, rowT{p, out})
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].pt < sorted[j].pt })
	inBuf := make([]byte, m.Inputs)
	for _, r := range sorted {
		for i := 0; i < m.Inputs; i++ {
			inBuf[i] = byte('0' + bitvec.Bit(r.pt, m.Inputs, i))
		}
		fmt.Fprintf(bw, "%s %s\n", inBuf, r.out)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}
