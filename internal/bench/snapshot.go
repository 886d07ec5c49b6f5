package bench

import (
	"encoding/json"
	"io"
	"time"
)

// Snapshot is the JSON envelope benchrunner writes for machine
// consumers (one file per experiment).
type Snapshot struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	Seed       int64  `json:"seed"`
	Generated  string `json:"generated"`
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
		Rows:       rows,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
