package experiments

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestValidateSelection(t *testing.T) {
	if err := ValidateSelection([]string{"all"}); err != nil {
		t.Errorf("all: %v", err)
	}
	if err := ValidateSelection([]string{"fig2", "table1", "cosched"}); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	err := ValidateSelection([]string{"fig2", "fig99"})
	if err == nil {
		t.Fatal("fig99 accepted")
	}
	if !strings.Contains(err.Error(), `"fig99"`) || !strings.Contains(err.Error(), "fig1") {
		t.Errorf("error must name the typo and the valid list, got: %v", err)
	}
}

func TestSelectResolvesAliasesWithoutDuplicates(t *testing.T) {
	got, err := Select([]string{"fig3", "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Slug != "fig3" {
		t.Fatalf("Select(fig3, table1) = %+v, want the single fig3 artifact", got)
	}

	all, err := Select([]string{SelectAll})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(artifacts) {
		t.Fatalf("Select(all) resolved %d artifacts, want %d", len(all), len(artifacts))
	}
}

func TestRunArtifactExecutes(t *testing.T) {
	v, err := RunArtifact("fig2", Params{MemAccesses: 2000, Instructions: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.(Fig2Result); !ok {
		t.Fatalf("RunArtifact(fig2) returned %T, want Fig2Result", v)
	}
	if _, err := RunArtifact("bogus", Params{}); err == nil {
		t.Fatal("bogus slug accepted")
	}
}

// recordOut is an Out that records the names of the tables reported.
type recordOut struct {
	wanted map[string]bool
	tables []string
}

func (o *recordOut) Wants(name string) bool            { return o.wanted[name] }
func (o *recordOut) Table(name string, _ *stats.Table) { o.tables = append(o.tables, name) }
func (o *recordOut) Println(...any)                    {}
func (o *recordOut) Printf(string, ...any)             {}

// TestReportPrintsOnlySelectedBlocks: an artifact answering to several
// names reports only the blocks the selection asked for, from one run.
func TestReportPrintsOnlySelectedBlocks(t *testing.T) {
	arts, err := Select([]string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	report, hit, err := arts[0].Memo(nil, Params{MemAccesses: 2000, Instructions: 2000, Seed: 7})
	if err != nil || hit {
		t.Fatalf("Memo without a cache: hit=%v err=%v", hit, err)
	}
	for _, tc := range []struct {
		wanted []string
		tables string
	}{
		{[]string{"table1"}, "table1"},
		{[]string{"fig3"}, "fig3"},
		{[]string{"fig3", "table1"}, "fig3,table1"},
	} {
		o := &recordOut{wanted: map[string]bool{}}
		for _, n := range tc.wanted {
			o.wanted[n] = true
		}
		report(o)
		if got := strings.Join(o.tables, ","); got != tc.tables {
			t.Errorf("selection %v reported tables %q, want %q", tc.wanted, got, tc.tables)
		}
	}
}
