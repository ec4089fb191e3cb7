package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// This file renders sweep results as machine-readable tables. Both formats
// write results in job order with fixed field formatting, so the bytes are
// identical for a given grid spec regardless of the worker count that
// produced the results — the property the determinism tests pin.

// csvHeader is the column order of WriteCSV.
var csvHeader = []string{
	"workload", "arch", "minibatch", "mode", "iters",
	"cycles", "instructions", "flops", "pe_util",
	"comp_mem_bytes", "mem_mem_bytes", "ext_mem_bytes", "nacks", "checksum",
	"attr_compute", "attr_dma_wait", "attr_tracker", "attr_link", "attr_other",
	"source",
}

// WriteCSV renders the results as a CSV table (header + one row per job).
func WriteCSV(w io.Writer, results []Result) error {
	write := func(fields []string) error {
		for i, f := range fields {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, f); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := write(csvHeader); err != nil {
		return err
	}
	for _, r := range results {
		row := []string{
			r.Workload, r.Arch, strconv.Itoa(r.Minibatch), r.Mode, strconv.Itoa(r.Iters),
			strconv.FormatInt(r.Cycles, 10),
			strconv.FormatInt(r.Instructions, 10),
			strconv.FormatInt(r.FLOPs, 10),
			strconv.FormatFloat(r.PEUtil, 'g', -1, 64),
			strconv.FormatInt(r.CompMemBytes, 10),
			strconv.FormatInt(r.MemMemBytes, 10),
			strconv.FormatInt(r.ExtMemBytes, 10),
			strconv.FormatInt(r.NACKs, 10),
			strconv.FormatFloat(float64(r.Checksum), 'g', -1, 32),
			strconv.FormatInt(r.AttrCompute, 10),
			strconv.FormatInt(r.AttrDMAWait, 10),
			strconv.FormatInt(r.AttrTracker, 10),
			strconv.FormatInt(r.AttrLink, 10),
			strconv.FormatInt(r.AttrOther, 10),
			r.Source,
		}
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}

// resultJSON is the JSON row shape (stable field order via struct tags).
type resultJSON struct {
	Workload     string       `json:"workload"`
	Arch         string       `json:"arch"`
	Minibatch    int          `json:"minibatch"`
	Mode         string       `json:"mode"`
	Iters        int          `json:"iters"`
	Cycles       int64        `json:"cycles"`
	Instructions int64        `json:"instructions"`
	FLOPs        int64        `json:"flops"`
	PEUtil       float64      `json:"pe_util"`
	CompMemBytes int64        `json:"comp_mem_bytes"`
	MemMemBytes  int64        `json:"mem_mem_bytes"`
	ExtMemBytes  int64        `json:"ext_mem_bytes"`
	NACKs        int64        `json:"nacks"`
	Checksum     checksumJSON `json:"checksum"`
	AttrCompute  int64        `json:"attr_compute"`
	AttrDMAWait  int64        `json:"attr_dma_wait"`
	AttrTracker  int64        `json:"attr_tracker"`
	AttrLink     int64        `json:"attr_link"`
	AttrOther    int64        `json:"attr_other"`
	Source       string       `json:"source"`
}

// checksumJSON is a checksum as JSON: finite values encode exactly as a
// float32 field would, and the non-finite values a diverged run produces
// (plain JSON numbers cannot carry them) encode as the strings "NaN",
// "+Inf" and "-Inf" — the spellings the CSV table already uses.
type checksumJSON float32

func (c checksumJSON) MarshalJSON() ([]byte, error) {
	f := float64(c)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(f, 'g', -1, 32)), nil
	}
	return json.Marshal(float32(c))
}

func (c *checksumJSON) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '"' {
		return json.Unmarshal(data, (*float32)(c))
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "NaN", "+Inf", "-Inf":
		f, _ := strconv.ParseFloat(s, 32)
		*c = checksumJSON(f)
		return nil
	}
	return fmt.Errorf("sweep: checksum %q is not a number", s)
}

// WriteJSON renders the results as an indented JSON array.
func WriteJSON(w io.Writer, results []Result) error {
	rows := make([]resultJSON, len(results))
	for i, r := range results {
		rows[i] = resultJSON{
			Workload: r.Workload, Arch: r.Arch, Minibatch: r.Minibatch,
			Mode: r.Mode, Iters: r.Iters,
			Cycles: r.Cycles, Instructions: r.Instructions, FLOPs: r.FLOPs,
			PEUtil: r.PEUtil, CompMemBytes: r.CompMemBytes,
			MemMemBytes: r.MemMemBytes, ExtMemBytes: r.ExtMemBytes,
			NACKs: r.NACKs, Checksum: checksumJSON(r.Checksum),
			AttrCompute: r.AttrCompute, AttrDMAWait: r.AttrDMAWait,
			AttrTracker: r.AttrTracker, AttrLink: r.AttrLink,
			AttrOther: r.AttrOther, Source: r.Source,
		}
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// FormatText renders a human-readable fixed-width table (sdsweep's default
// stdout view).
func FormatText(results []Result) string {
	out := fmt.Sprintf("%-32s %12s %13s %13s %8s %7s %9s\n",
		"job", "cycles", "instructions", "FLOPs", "PE-util", "NACKs", "source")
	for _, r := range results {
		out += fmt.Sprintf("%-32s %12d %13d %13d %8.3f %7d %9s\n",
			r.Name(), r.Cycles, r.Instructions, r.FLOPs, r.PEUtil, r.NACKs, r.Source)
	}
	return out
}
