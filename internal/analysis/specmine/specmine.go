// Package specmine implements the specification-mining use case §V
// motivates: "deriving a high-level program specification from low-level
// commands". Given command sequences of one procedure type, it recovers a
// compact structural specification: the repeated blocks (loop bodies), how
// often they iterate, and the glue commands between them — the shape a
// human would write down as the procedure's pseudocode.
package specmine

import (
	"fmt"
	"sort"
	"strings"
)

// Element is one piece of a mined specification: either a literal command
// or a block repeated Min..Max times.
type Element struct {
	// Block is the repeated command subsequence (length 1 for a literal).
	Block []string
	// Min and Max bound the observed consecutive repetitions.
	Min, Max int
}

// Literal reports whether the element is a single non-repeated command.
func (e Element) Literal() bool { return e.Min == 1 && e.Max == 1 && len(e.Block) == 1 }

// String renders the element as pseudocode.
func (e Element) String() string {
	body := strings.Join(e.Block, " ")
	if e.Literal() {
		return body
	}
	if e.Min == e.Max {
		return fmt.Sprintf("repeat ×%d { %s }", e.Min, body)
	}
	return fmt.Sprintf("repeat ×%d..%d { %s }", e.Min, e.Max, body)
}

// Spec is a mined specification: a sequence of elements.
type Spec []Element

// String renders the specification as one pseudocode line per element.
func (s Spec) String() string {
	lines := make([]string, len(s))
	for i, e := range s {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// Commands expands the specification back into a command sequence using
// each block's minimum repetition count — a canonical witness run.
func (s Spec) Commands() []string {
	var out []string
	for _, e := range s {
		for k := 0; k < e.Min; k++ {
			out = append(out, e.Block...)
		}
	}
	return out
}

// maxBlock is the longest block length Mine considers.
const maxBlock = 8

// Mine recovers a specification from one command sequence by folding tandem
// repeats: at each position it chooses the block length whose consecutive
// repetition covers the most commands, preferring shorter blocks on ties
// (the tightest loop). Repeated calls over runs of the same procedure can
// be merged with Merge.
func Mine(seq []string) Spec {
	var spec Spec
	i := 0
	for i < len(seq) {
		bestLen, bestReps := 1, 1
		bestCover := 1
		for blockLen := 1; blockLen <= maxBlock && i+blockLen <= len(seq); blockLen++ {
			reps := 1
			for {
				start := i + reps*blockLen
				if start+blockLen > len(seq) || !equal(seq[i:i+blockLen], seq[start:start+blockLen]) {
					break
				}
				reps++
			}
			if cover := reps * blockLen; reps > 1 && cover > bestCover {
				bestLen, bestReps, bestCover = blockLen, reps, cover
			}
		}
		block := append([]string(nil), seq[i:i+bestLen]...)
		spec = append(spec, Element{Block: block, Min: bestReps, Max: bestReps})
		i += bestLen * bestReps
	}
	return spec
}

// Merge combines specifications mined from multiple runs of the same
// procedure: elements that align structurally (same block) widen their
// repetition bounds; structurally divergent runs return ok=false.
func Merge(specs []Spec) (Spec, bool) {
	if len(specs) == 0 {
		return nil, false
	}
	out := append(Spec(nil), specs[0]...)
	for _, other := range specs[1:] {
		if len(other) != len(out) {
			return nil, false
		}
		for i := range out {
			if !equal(out[i].Block, other[i].Block) {
				return nil, false
			}
			if other[i].Min < out[i].Min {
				out[i].Min = other[i].Min
			}
			if other[i].Max > out[i].Max {
				out[i].Max = other[i].Max
			}
		}
	}
	return out, true
}

// Coverage reports how much of the sequence the spec's repeated blocks
// explain: commands inside repeat-blocks divided by total commands. High
// coverage means the procedure is loop-structured (as the lab's closed-loop
// screens are).
func Coverage(seq []string, spec Spec) float64 {
	if len(seq) == 0 {
		return 0
	}
	inLoops := 0
	for _, e := range spec {
		if !e.Literal() && e.Max > 1 {
			inLoops += e.Min * len(e.Block)
		}
	}
	return float64(inLoops) / float64(len(seq))
}

// TopBlocks returns the k most frequent repeated blocks across sequences,
// by total commands covered — a corpus-level summary of the procedures'
// building blocks.
func TopBlocks(seqs [][]string, k int) []Element {
	cover := make(map[string]*Element)
	for _, seq := range seqs {
		for _, e := range Mine(seq) {
			if e.Literal() || e.Max <= 1 {
				continue
			}
			key := strings.Join(e.Block, "\x00")
			if prev, ok := cover[key]; ok {
				prev.Min += e.Min // accumulate total repetitions as Min
				if e.Max > prev.Max {
					prev.Max = e.Max
				}
			} else {
				cp := e
				cp.Block = append([]string(nil), e.Block...)
				cover[key] = &cp
			}
		}
	}
	out := make([]Element, 0, len(cover))
	for _, e := range cover {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Min*len(out[i].Block), out[j].Min*len(out[j].Block)
		if ci != cj {
			return ci > cj
		}
		return strings.Join(out[i].Block, " ") < strings.Join(out[j].Block, " ")
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
