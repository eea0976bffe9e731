// Package golden pins a test's simulated output to a recorded file under
// the test package's testdata/, and is the one way this module records
// such output. Only _test.go files import it (`make no-golden-import`
// fails otherwise), so it is in no program and on no benchmarked path.
//
// A golden file holds one `<key>\t<value>` line per value, in the order
// the test produces them. `go test -update` re-records a file, but a key
// whose value moved or that disappeared only when an entry of the
// DECLARED.md above it covers the key: a moved simulated number is a model
// change and needs a stated reason.
package golden

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden; a moved or missing key needs a DECLARED.md entry")

// Hash is a running FNV-64a over little-endian bit patterns.
type Hash struct {
	h   hash.Hash64
	buf [8]byte
}

// NewHash starts a hash.
func NewHash() *Hash { return &Hash{h: fnv.New64a()} }

// U64 hashes v's eight bytes.
func (h *Hash) U64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

// F64 hashes v's bit pattern.
func (h *Hash) F64(v float64) { h.U64(math.Float64bits(v)) }

// F32s hashes the length, then each value's bit pattern as a U64.
func (h *Hash) F32s(vs []float32) {
	h.U64(uint64(len(vs)))
	for _, v := range vs {
		h.U64(uint64(math.Float32bits(v)))
	}
}

// Str hashes s's bytes, then its length.
func (h *Hash) Str(s string) {
	io.WriteString(h.h, s)
	h.U64(uint64(len(s)))
}

// Sum returns the hash of everything written so far.
func (h *Hash) Sum() uint64 { return h.h.Sum64() }

// Pair is one recorded value.
type Pair struct{ Key, Value string }

// List is a test's output as ordered (key, value) pairs.
type List []Pair

// Add appends one pair.
func (l *List) Add(key, value string) { *l = append(*l, Pair{key, value}) }

// U64 appends v as sixteen hex digits.
func (l *List) U64(key string, v uint64) { l.Add(key, fmt.Sprintf("%016x", v)) }

// F64 appends v's bit pattern as sixteen hex digits.
func (l *List) F64(key string, v float64) { l.U64(key, math.Float64bits(v)) }

// Check compares got with the golden file at path and reports every key
// that is moved, missing, extra or out of the recorded order, and any
// duplicate, empty or tab- or newline-holding key. A moved or missing key
// is a model change: declare it in DECLARED.md, then re-record. Under
// -update Check rewrites the file instead, unless a moved or missing key
// has no DECLARED.md entry, which it reports.
func Check(t testing.TB, path string, got List) {
	t.Helper()
	at := map[string]int{}
	for i, p := range got {
		if _, dup := at[p.Key]; dup || p.Key == "" || strings.ContainsAny(p.Key+p.Value, "\t\n") {
			t.Errorf("%s: key %q is repeated, empty, or holds a tab or newline", path, p.Key)
			return
		}
		at[p.Key] = i
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("%v", err)
		return
	}
	// A key both lists hold is out of order when the key before it among
	// those they share differs.
	var moved, problems []string
	recorded, before, last := map[string]bool{}, map[string]string{}, ""
	for line := range strings.Lines(string(data)) {
		k, v, _ := strings.Cut(strings.TrimSuffix(line, "\n"), "\t")
		recorded[k] = true
		i, ok := at[k]
		if ok {
			before[k], last = last, k
		}
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("missing key %q (recorded %s)", k, v))
		case got[i].Value != v:
			problems = append(problems, fmt.Sprintf("key %q moved: got %s, recorded %s", k, got[i].Value, v))
		default:
			continue
		}
		moved = append(moved, k)
	}
	last = ""
	for _, p := range got {
		if !recorded[p.Key] {
			problems = append(problems, fmt.Sprintf("extra key %q = %s", p.Key, p.Value))
			continue
		}
		if before[p.Key] != last {
			problems = append(problems, fmt.Sprintf("key %q is out of the recorded order", p.Key))
		}
		last = p.Key
	}
	if !*update {
		for _, p := range problems {
			t.Errorf("%s: %s", path, p)
		}
		return
	}
	globs, err := declared(path)
	if err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	refused := false
	for _, k := range moved {
		if !slices.ContainsFunc(globs, func(g string) bool {
			glob, prefix := strings.CutSuffix(g, "*")
			return k == glob || prefix && strings.HasPrefix(k, glob)
		}) {
			t.Errorf("%s: key %q moved or vanished, and no DECLARED.md entry covers it", path, k)
			refused = true
		}
	}
	var out strings.Builder
	for _, p := range got {
		fmt.Fprintf(&out, "%s\t%s\n", p.Key, p.Value)
	}
	if !refused && out.String() != string(data) {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// entry is one DECLARED.md entry: a backquoted `<file>:<key glob>`, where
// <file> is a golden file's path from DECLARED.md's directory and the glob
// is a key, or a prefix of keys followed by `*`.
var entry = regexp.MustCompile("`([^`]+\\.golden):([^`]+)`")

// declared returns the key globs the nearest DECLARED.md above the golden
// file at path gives for that file.
func declared(path string) ([]string, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(abs)
	data, err := os.ReadFile(filepath.Join(dir, "DECLARED.md"))
	for errors.Is(err, fs.ErrNotExist) && dir != filepath.Dir(dir) {
		dir = filepath.Dir(dir)
		data, err = os.ReadFile(filepath.Join(dir, "DECLARED.md"))
	}
	var globs []string
	for _, m := range entry.FindAllStringSubmatch(string(data), -1) {
		if filepath.Join(dir, m[1]) == abs {
			globs = append(globs, m[2])
		}
	}
	return globs, err
}
