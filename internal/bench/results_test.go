package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readResults decodes the record array at path.
func readResults(t *testing.T, path string) []Record {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAppendResultsMergesAndRoundTrips pins the bench-save history
// semantics: successive appends accumulate (never overwrite) and the rows
// round-trip.
func TestAppendResultsMergesAndRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")

	first := []Record{{Experiment: "fig9", NsPerOp: 100, Engine: "analytic", Seed: 42,
		Rows: []Row{{"mean of trained", "TFLOPs", 33.5, 0}}}}
	if err := AppendResults(path, first); err != nil {
		t.Fatal(err)
	}
	second := []Record{{Experiment: "abl-zero", NsPerOp: 200, Engine: "analytic", Seed: 42}}
	if err := AppendResults(path, second); err != nil {
		t.Fatal(err)
	}

	got := readResults(t, path)
	if len(got) != 2 {
		t.Fatalf("after two appends the history holds %d records, want 2", len(got))
	}
	if got[0].Experiment != "fig9" || got[1].Experiment != "abl-zero" {
		t.Fatalf("history out of order: %q, %q", got[0].Experiment, got[1].Experiment)
	}
	if len(got[0].Rows) != 1 || got[0].Rows[0] != first[0].Rows[0] {
		t.Fatalf("rows did not round-trip: %+v", got[0].Rows)
	}
}

// TestAppendResultsPreservesUnknownFields guards the lossless-merge
// property: a record written by a future schema (extra fields) must not
// have those fields dropped when an older binary appends to the file.
func TestAppendResultsPreservesUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	future := `[{"experiment":"fig9","ns_op":1,"engine":"analytic","quick":false,"seed":7,` +
		`"timestamp":"2026-01-01T00:00:00Z","future_field":{"nested":true}}]`
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendResults(path, []Record{{Experiment: "abl-zero"}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"future_field"`) {
		t.Fatal("rewrite dropped a field it did not recognise")
	}
	var arr []json.RawMessage
	if err := json.Unmarshal(data, &arr); err != nil {
		t.Fatalf("rewritten file is not a JSON array: %v", err)
	}
	if len(arr) != 2 {
		t.Fatalf("file holds %d records, want 2", len(arr))
	}
}

// TestAppendResultsSetsAsideCorruptFile: a non-array file is renamed to
// .corrupt, not erased.
func TestAppendResultsSetsAsideCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendResults(path, []Record{{Experiment: "fig9"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt history was not set aside: %v", err)
	}
	if got := readResults(t, path); len(got) != 1 || got[0].Experiment != "fig9" {
		t.Fatalf("fresh history after set-aside holds %+v", got)
	}
}
