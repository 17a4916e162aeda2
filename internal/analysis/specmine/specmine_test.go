package specmine

import (
	"strings"
	"testing"
)

func seq(s string) []string { return strings.Fields(s) }

func TestMineFoldsTandemRepeats(t *testing.T) {
	// init, then a 3-command loop body ×4, then a closer.
	in := seq("init A B C A B C A B C A B C done")
	spec := Mine(in)
	if len(spec) != 3 {
		t.Fatalf("spec has %d elements: %s", len(spec), spec)
	}
	if !spec[0].Literal() || spec[0].Block[0] != "init" {
		t.Errorf("element 0: %+v", spec[0])
	}
	loop := spec[1]
	if len(loop.Block) != 3 || loop.Min != 4 || loop.Max != 4 {
		t.Errorf("loop element: %+v", loop)
	}
	if !spec[2].Literal() || spec[2].Block[0] != "done" {
		t.Errorf("element 2: %+v", spec[2])
	}
	if got := spec.String(); !strings.Contains(got, "repeat ×4 { A B C }") {
		t.Errorf("pseudocode:\n%s", got)
	}
}

func TestMinePrefersLargestCover(t *testing.T) {
	// "A A A A" could fold as ×4 of [A]; "A B A B" as ×2 of [A B].
	spec := Mine(seq("A A A A"))
	if len(spec) != 1 || spec[0].Min != 4 || len(spec[0].Block) != 1 {
		t.Errorf("A×4: %+v", spec)
	}
	spec = Mine(seq("A B A B"))
	if len(spec) != 1 || spec[0].Min != 2 || len(spec[0].Block) != 2 {
		t.Errorf("(A B)×2: %+v", spec)
	}
}

func TestMineRoundTripCommands(t *testing.T) {
	in := seq("x A B A B A B y y y z")
	spec := Mine(in)
	got := spec.Commands()
	if strings.Join(got, " ") != strings.Join(in, " ") {
		t.Errorf("round trip:\n in:  %v\n out: %v", in, got)
	}
}

func TestMineEmptyAndMaxBlock(t *testing.T) {
	if got := Mine(nil); len(got) != 0 {
		t.Errorf("empty: %v", got)
	}
	// Blocks of up to eight commands fold; a nine-command loop body stays
	// literal.
	if spec := Mine(seq("A B C D E F G H A B C D E F G H")); len(spec) != 1 || spec[0].Min != 2 {
		t.Errorf("8-command block: %v", spec)
	}
	if spec := Mine(seq("A B C D E F G H I A B C D E F G H I")); len(spec) != 18 {
		t.Errorf("9-command block: %v", spec)
	}
}

func TestMergeWidensBounds(t *testing.T) {
	a := Mine(seq("init A B A B done"))
	b := Mine(seq("init A B A B A B A B done"))
	merged, ok := Merge([]Spec{a, b})
	if !ok {
		t.Fatalf("structurally identical runs failed to merge:\na=%s\nb=%s", a, b)
	}
	loop := merged[1]
	if loop.Min != 2 || loop.Max != 4 {
		t.Errorf("merged loop bounds %d..%d, want 2..4", loop.Min, loop.Max)
	}
	if !strings.Contains(merged.String(), "repeat ×2..4 { A B }") {
		t.Errorf("pseudocode:\n%s", merged)
	}
}

func TestMergeRejectsDivergentStructure(t *testing.T) {
	a := Mine(seq("init A A A done"))
	b := Mine(seq("init B B B done"))
	if _, ok := Merge([]Spec{a, b}); ok {
		t.Error("divergent runs merged")
	}
	if _, ok := Merge(nil); ok {
		t.Error("empty merge succeeded")
	}
}

func TestCoverage(t *testing.T) {
	in := seq("x A B A B A B y")
	spec := Mine(in)
	cov := Coverage(in, spec)
	if cov < 0.7 || cov > 0.8 { // 6 of 8 commands in the loop
		t.Errorf("coverage %v, want 0.75", cov)
	}
	if Coverage(nil, spec) != 0 {
		t.Error("empty coverage")
	}
}

func TestTopBlocks(t *testing.T) {
	seqs := [][]string{
		seq("Q Q Q Q A B A B"),
		seq("Q Q Q C"),
	}
	top := TopBlocks(seqs, 2)
	if len(top) != 2 {
		t.Fatalf("top blocks: %v", top)
	}
	if top[0].Block[0] != "Q" {
		t.Errorf("most-covering block = %v, want Q polling", top[0].Block)
	}
}

// TestMineRealisticProcedure mines the loop structure out of a lab-like
// trace: a polling loop inside a per-vial loop.
func TestMineRealisticProcedure(t *testing.T) {
	var in []string
	in = append(in, "init", "HOME")
	for v := 0; v < 3; v++ {
		in = append(in, "GRIP", "ARM")
		for p := 0; p < 4; p++ {
			in = append(in, "MVNG")
		}
		in = append(in, "GRIP")
	}
	spec := Mine(in)
	if cov := Coverage(in, spec); cov < 0.5 {
		t.Errorf("loop coverage %v for a loop-structured trace:\n%s", cov, spec)
	}
	// The per-vial loop (the largest cover: the whole GRIP ARM MVNG×4 GRIP
	// body repeated three times) must be recovered.
	found := false
	for _, e := range spec {
		if e.Min == 3 && len(e.Block) == 7 && e.Block[0] == "GRIP" {
			found = true
		}
	}
	if !found {
		t.Errorf("per-vial ×3 loop not mined:\n%s", spec)
	}
}
