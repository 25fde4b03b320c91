package obsv

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts the -cpuprofile / -memprofile hooks the
// command-line tools share. A non-empty cpuFile receives a CPU profile
// from now until stop; a non-empty memFile receives a heap profile,
// taken by stop after a final GC. stop reports what failed after the
// start: closing the CPU profile or writing the heap profile.
func StartProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memFile != "" {
			runtime.GC()
			f, err := os.Create(memFile)
			if err == nil {
				err = pprof.WriteHeapProfile(f)
				errs = append(errs, f.Close())
			}
			errs = append(errs, err)
		}
		return errors.Join(errs...)
	}, nil
}
