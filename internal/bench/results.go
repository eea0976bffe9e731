package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Record is one experiment's machine-readable benchmark result, the
// append-only unit of the repository's performance trajectory
// (BENCH_results.json).
type Record struct {
	Experiment  string `json:"experiment"`
	NsPerOp     int64  `json:"ns_op"`
	AllocsPerOp int64  `json:"allocs_op"`
	BytesPerOp  int64  `json:"bytes_op"`
	// Rows are the experiment's rows from the benchmarked run.
	Rows []Row `json:"rows,omitempty"`
	// Engine is the cost engine the simulated rows are attributable to:
	// "analytic" or an "event:*" topology-graph engine.
	Engine    string `json:"engine"`
	Quick     bool   `json:"quick"`
	Seed      uint64 `json:"seed"`
	Timestamp string `json:"timestamp"`
}

// AppendResults merges records into the JSON array at path: existing
// entries are preserved byte-for-byte as raw JSON (fields this version
// of the schema does not know about survive the rewrite), new records
// are appended, and the whole array is rewritten so the file stays valid
// JSON. A file that is not a JSON array is never silently erased — it is
// moved aside to path+".corrupt" and a fresh history starts.
func AppendResults(path string, records []Record) error {
	var existing []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if uerr := json.Unmarshal(data, &existing); uerr != nil {
			backup := path + ".corrupt"
			if rerr := os.Rename(path, backup); rerr == nil {
				fmt.Fprintf(os.Stderr, "warning: %s is not valid JSON (%v); moved it to %s and starting fresh\n",
					path, uerr, backup)
			} else {
				fmt.Fprintf(os.Stderr, "warning: %s is not valid JSON (%v) and could not be moved aside (%v); it will be overwritten\n",
					path, uerr, rerr)
			}
			existing = nil
		}
	}
	for _, r := range records {
		raw, err := json.Marshal(r)
		if err != nil {
			return err
		}
		existing = append(existing, raw)
	}
	data, err := json.MarshalIndent(existing, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
