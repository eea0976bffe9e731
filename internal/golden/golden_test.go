package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps what Check reports; Check calls no
// other method of it.
type recorder struct {
	testing.TB
	errs []string
}

func (*recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// module writes DECLARED.md and the golden file testdata/x.golden under
// a temporary directory, and returns the golden file's path.
func module(t *testing.T, recorded, declared string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "testdata", "x.golden")
	if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{filepath.Join(dir, "DECLARED.md"): declared, path: recorded} {
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// check runs Check with -update set to upd and returns what it reported.
func check(path string, upd bool, got List) []string {
	defer func(old bool) { *update = old }(*update)
	*update = upd
	r := &recorder{}
	Check(r, path, got)
	return r.errs
}

func list(kv ...string) List {
	var l List
	for i := 0; i < len(kv); i += 2 {
		l.Add(kv[i], kv[i+1])
	}
	return l
}

const abc = "a\t1\nb b\t2\nc\t3\n"

func TestCheckNamesTheKey(t *testing.T) {
	for _, c := range []struct {
		name string
		got  List
		key  string
	}{
		{"duplicate", list("a", "1", "b b", "2", "a", "1", "c", "3"), `"a"`},
		{"missing", list("a", "1", "c", "3"), `missing key "b b"`},
		{"extra", list("a", "1", "b b", "2", "c", "3", "d", "4"), `extra key "d"`},
		{"reordered", list("a", "1", "c", "3", "b b", "2"), `key "b b" is out of the recorded order`},
		{"moved", list("a", "1", "b b", "9", "c", "3"), `key "b b" moved: got 9, recorded 2`},
	} {
		t.Run(c.name, func(t *testing.T) {
			errs := check(module(t, abc, ""), false, c.got)
			if !strings.Contains(strings.Join(errs, "\n"), c.key) {
				t.Errorf("reported %q, want a line naming %s", errs, c.key)
			}
		})
	}
	if errs := check(module(t, abc, ""), false, list("a", "1", "b b", "2", "c", "3")); len(errs) != 0 {
		t.Errorf("an equal list reported %q", errs)
	}
}

func TestUpdateNeedsADeclaredEntry(t *testing.T) {
	moved := list("a", "1", "b b", "9", "c", "3", "new", "4")
	for _, c := range []struct {
		name, declared string
		ok             bool
	}{
		{"undeclared", "| 1 | `testdata/x.golden:a` | not b b |\n", false},
		{"other file", "| 1 | `testdata/y.golden:b b` | |\n", false},
		// DECLARED.md's History form: file and key in separate backquotes.
		{"history", "- PR 1, `testdata/x.golden`, key `b b`: why\n", false},
		{"exact", "| 1 | `testdata/x.golden:b b` | why |\n", true},
		{"prefix", "| 1 | `testdata/x.golden:b*` | why |\n", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := module(t, abc, c.declared)
			errs := check(path, true, moved)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := abc
			if c.ok {
				want = "a\t1\nb b\t9\nc\t3\nnew\t4\n"
			}
			if string(data) != want || c.ok != (len(errs) == 0) {
				t.Errorf("file %q, reported %q", data, errs)
			}
			if !c.ok && (len(errs) != 1 || !strings.Contains(errs[0], `key "b b" moved or vanished`)) {
				t.Errorf("reported %q, want one line naming b b", errs)
			}
		})
	}
	// A no-op update, and one that only records new keys, need no entry.
	path := module(t, abc, "")
	if errs := check(path, true, list("a", "1", "b b", "2", "c", "3")); len(errs) != 0 {
		t.Errorf("no-op update reported %q", errs)
	}
	if data, _ := os.ReadFile(path); string(data) != abc {
		t.Errorf("no-op update left %q", data)
	}
	if errs := check(path, true, list("a", "1", "b b", "2", "c", "3", "d", "4")); len(errs) != 0 {
		t.Errorf("an update adding a key reported %q", errs)
	}
}
