// Package profile wires the -cpuprofile and -memprofile flags shared by the
// commands: a CPU profile of the whole run and a heap profile taken at its
// end, both in the runtime/pprof format `go tool pprof` reads.
package profile

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Run runs body under the requested profiles: a CPU profile written to
// cpuPath and a heap profile written to memPath once body returns. An empty
// path disables that profile. Both files are created before body starts, so
// a bad path fails without doing any work. Every profiling error names the
// flag whose path caused it; body's own error comes first.
func Run(cpuPath, memPath string, body func() error) error {
	var cpu, mem *os.File
	closeAll := func() {
		for _, f := range []*os.File{cpu, mem} {
			if f != nil {
				f.Close()
			}
		}
	}
	var err error
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			closeAll()
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			closeAll()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	errs := []error{body()}
	if cpu != nil {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("-cpuprofile: %w", err))
		}
	}
	if mem != nil {
		runtime.GC() // report live objects as of the end of the run
		if err := pprof.WriteHeapProfile(mem); err != nil {
			errs = append(errs, fmt.Errorf("-memprofile: %w", err))
		}
		if err := mem.Close(); err != nil {
			errs = append(errs, fmt.Errorf("-memprofile: %w", err))
		}
	}
	return errors.Join(errs...)
}
