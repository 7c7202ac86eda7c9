package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time in
// these ticks. It is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// procUsage is what the bench reads about a process from outside it.
type procUsage struct {
	userS, sysS float64 // CPU seconds
	ctxSwitches int64   // voluntary + involuntary, all threads
	peakRSSMB   float64 // VmHWM
}

func (u procUsage) cpuS() float64 { return u.userS + u.sysS }

func (u procUsage) sub(o procUsage) procUsage {
	return procUsage{
		userS:       u.userS - o.userS,
		sysS:        u.sysS - o.sysS,
		ctxSwitches: u.ctxSwitches - o.ctxSwitches,
		peakRSSMB:   u.peakRSSMB,
	}
}

func (u procUsage) add(o procUsage) procUsage {
	return procUsage{
		userS:       u.userS + o.userS,
		sysS:        u.sysS + o.sysS,
		ctxSwitches: u.ctxSwitches + o.ctxSwitches,
		peakRSSMB:   u.peakRSSMB + o.peakRSSMB,
	}
}

// selfUsage reads the bench process's own usage. CPU comes from
// getrusage, which has microsecond resolution where /proc has 10 ms.
func selfUsage() (procUsage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}, fmt.Errorf("getrusage: %w", err)
	}
	return procUsage{
		userS:       float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6,
		sysS:        float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6,
		ctxSwitches: ru.Nvcsw + ru.Nivcsw,
		peakRSSMB:   float64(ru.Maxrss) / 1024, // Linux reports KB
	}, nil
}

// pidUsage reads another process's usage from /proc.
func pidUsage(pid int) (procUsage, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	raw, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return procUsage{}, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields 14 and 15 (utime, stime) are counted from after it.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procUsage{}, fmt.Errorf("%s/stat: short line", dir)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("%s/stat: bad cpu fields", dir)
	}
	u := procUsage{userS: ut / clockTick, sysS: st / clockTick}
	// Context switches are per thread; the process's figure is the sum
	// over /proc/<pid>/task/*.
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return u, err
	}
	for _, t := range tasks {
		v, _ := statusKB(t, "voluntary_ctxt_switches:") // a thread may exit mid-scan
		nv, _ := statusKB(t, "nonvoluntary_ctxt_switches:")
		u.ctxSwitches += int64(v + nv)
	}
	kb, err := statusKB(filepath.Join(dir, "status"), "VmHWM:")
	u.peakRSSMB = kb / 1024
	return u, err
}

// statusKB returns the number after a "Key:" line of a /proc status file.
func statusKB(path, key string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// gcCPUFraction is the share of the bench process's busy CPU time spent
// in the garbage collector since process start (the runtime refreshes
// these estimates at each GC cycle).
func gcCPUFraction() float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0
		}
	}
	if busy := s[1].Value.Float64() - s[2].Value.Float64(); busy > 0 {
		return s[0].Value.Float64() / busy
	}
	return 0
}
