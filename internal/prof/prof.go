// Package prof is the pprof start/stop code the CLIs share, so that
// -cpuprofile and -memprofile mean the same thing on each of them.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile at cpuPath and returns the function that ends
// it and writes the allocation profile (since process start) to memPath.
// An empty path turns that profile off.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // the profile reports allocations as of the last completed cycle
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("writing allocation profile: %w", err)
		}
		return f.Close()
	}, nil
}

// StartCPU is Start for a command with a -cpuprofile flag only: it exits
// the process if the profile cannot be started, and the returned function,
// meant to be deferred in main, reports a failure to write it.
func StartCPU(path string) (stop func()) {
	stopProfile, err := Start(path, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
