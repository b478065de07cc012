package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostStamp is recorded in every result: a number without the machine shape
// it was measured on is not a result (ROADMAP aim 1).
type hostStamp struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
}

// maxProcs is the load shape's one host-dependent knob, fixed by rule
// rather than by flag: min(nproc, 4).
func maxProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func stampHost(dataDir string) hostStamp {
	return hostStamp{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		DataDirFS:  fsName(dataDir),
	}
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsName names the filesystem holding dir from its statfs magic; fsync cost
// is a property of it, so wal.* numbers from different filesystems are not
// comparable.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField reads one "Key: value" line of a /proc/self file as an integer
// (the unit suffix, if any, is dropped). Missing files read as 0: the
// metric is then visibly absent rather than the run failing on a non-Linux
// developer machine.
func procField(file, key string) int64 {
	f, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(fields[0], 10, 64)
		return v
	}
	return 0
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 { return float64(procField("status", "VmHWM")) / 1024 }

// ioWriteBytes is the bytes this process has caused to be sent to storage.
func ioWriteBytes() int64 { return procField("io", "write_bytes") }

// resources is a start/stop meter for the costs a transaction count is
// divided into: CPU, heap allocations, storage writes.
type resources struct {
	cpu     time.Duration
	mallocs uint64
	written int64
}

func readResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{cpu: cpuTime(), mallocs: ms.Mallocs, written: ioWriteBytes()}
}

func (r resources) since(start resources) resources {
	return resources{cpu: r.cpu - start.cpu, mallocs: r.mallocs - start.mallocs, written: r.written - start.written}
}
