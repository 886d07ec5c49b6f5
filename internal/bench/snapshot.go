package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// Snapshot is the JSON envelope benchrunner writes for machine
// consumers (one file per experiment). It records the machine the
// rows were measured on: CPU count, the Go scheduler's parallelism
// and the toolchain.
type Snapshot struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	Seed       int64  `json:"seed"`
	Generated  string `json:"generated"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Rows       any    `json:"rows"`
}

// EncodeSnapshot marshals one experiment's rows onto w. File placement
// is the caller's business (cmd/benchrunner): this package stays free
// of file I/O, like every non-storage library package (lint GL010).
func EncodeSnapshot(w io.Writer, experiment string, opt Options, rows any) error {
	snap := Snapshot{
		Experiment: experiment,
		Quick:      opt.Quick,
		Seed:       opt.Seed,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
