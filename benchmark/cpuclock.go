package main

import (
	"syscall"
	"unsafe"
)

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID from <time.h>: CPU
// time consumed by every thread of this process, at scheduler-clock
// resolution (not the tick-sampled utime/stime split getrusage reports).
const clockProcessCPUTimeID = 2

// cpuNow reads the process CPU clock in seconds. Every host-time metric of
// the benchmark is a difference of two such readings: on a shared 2-vCPU
// box wall time counts the neighbours' work too, CPU time does not.
func cpuNow() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("benchmark: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}
