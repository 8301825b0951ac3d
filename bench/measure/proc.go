package measure

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// PeakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MB; 0 where /proc is not available.
func PeakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// Env is what every result records about where it was measured.
type Env struct {
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Load1      float64 `json:"load_1min"`
}

// ReadEnv samples the environment; call it before the work starts so
// the load average is the machine's, not the benchmark's.
func ReadEnv(seed uint64) Env {
	e := Env{
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}

// HeapMB forces a collection and returns the live heap in MB — used
// in pairs around a layer's construction to report its footprint. It
// collects twice: what a sync.Pool held survives the first cycle in
// the pool's victim cache.
func HeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
