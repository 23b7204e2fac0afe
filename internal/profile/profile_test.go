package profile

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunBadPathNamesFlag: an unwritable path fails before body runs, with
// the offending flag in the message.
func TestRunBadPathNamesFlag(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "out.prof")
	for _, c := range []struct{ cpu, mem, flag string }{
		{bad, "", "-cpuprofile"},
		{"", bad, "-memprofile"},
		{filepath.Join(t.TempDir(), "cpu.prof"), bad, "-memprofile"},
	} {
		ran := false
		err := Run(c.cpu, c.mem, func() error { ran = true; return nil })
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+":") {
			t.Errorf("Run(%q, %q) = %v, want an error naming %s", c.cpu, c.mem, err, c.flag)
		}
		if ran {
			t.Errorf("Run(%q, %q) ran the body despite the bad path", c.cpu, c.mem)
		}
	}
}

// TestRunWritesProfiles: both files are non-empty after the run, body's
// error is passed through, and with no paths Run just calls body.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	boom := errors.New("boom")
	if err := Run(cpu, mem, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the body's error", err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, size %v", p, err, st)
		}
	}
	ran := false
	if err := Run("", "", func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("Run without profiles: err %v, ran %v", err, ran)
	}
}
