package workload

import "sort"

// The end-to-end metrics the harness computes; BENCHMARK.json gives
// their units, directions and bounds. Every workload reports every one.
const (
	SetupS        = "setup_s"
	WallS         = "wall_s"
	PeakRSSMB     = "peak_rss_mb"
	AnsweredShare = "answered_share"
)

// The six workloads. BENCHMARK.json says why each is in the set;
// README.md gives their sizes and the layers they load.
const (
	SimScale      = "sim_scale"
	SimPaper      = "sim_paper"
	LiveTCP       = "live_tcp"
	ServeRead     = "serve_read"
	ServePublish  = "serve_publish"
	ServeDegraded = "serve_degraded"
)

var workloads = map[string]func(*run) error{
	SimScale:      func(r *run) error { return runSim(r, simScaleSpec) },
	SimPaper:      func(r *run) error { return runSim(r, simPaperSpec) },
	LiveTCP:       runLive,
	ServeRead:     func(r *run) error { return runServe(r, ServeRead) },
	ServePublish:  func(r *run) error { return runServe(r, ServePublish) },
	ServeDegraded: func(r *run) error { return runServe(r, ServeDegraded) },
}

// Names lists the workloads the harness can run, sorted.
func Names() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
