package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"scaledeep/internal/arch"
	"scaledeep/internal/dnn"
	"scaledeep/internal/store"
	"scaledeep/internal/telemetry"
)

// This file is the persistence tier of grid-cell memoization: it maps a
// grid cell to a content-addressed store key and a serialized blob, so a
// sweep consults memory (in-run cell classes, then the store's in-process
// map), then disk, and only then simulates. Soundness mirrors DESIGN.md
// §5d/§5f: a key pins everything a cell's result depends on — the full
// workload topology (not just its catalog name), the chip configuration
// and precision, the run constants baked into runJob, the minibatch, mode
// and normalized iterations, plus a schema version and a Go-struct layout
// hash so blobs written by an incompatible binary become misses instead of
// being decoded into the wrong fields.

// storeSchema is bumped on any semantic change to the blob contents or the
// meaning of existing fields.
//
// v2: stall-attribution columns joined the measurements.
// v3: the always-zero within-chip row-memo gauge left the metrics
// snapshot, and non-finite checksums encode as strings (checksumJSON).
const storeSchema = 3

// runnerSig names the constants runJob bakes into every simulation: the
// input/golden PRNG seed, the learning rate and the bias policy. Changing
// any of them changes results, so it must change this string too.
const runnerSig = "runJob/v1 seed=7 lr=0.0625 nobias"

// measureBlob is the measurement half of a persisted cell result — Result
// minus the Job identity, which replicas overwrite anyway.
type measureBlob struct {
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
}

// resultBlob is the persisted form of one simulated grid cell: the
// measurements plus the cell's isolated telemetry snapshot, so a disk hit
// reproduces the exact metrics merge a fresh simulation would have
// contributed.
type resultBlob struct {
	Schema  int                `json:"schema"`
	Cell    string             `json:"cell"` // human-readable, for debugging only
	Measure measureBlob        `json:"measure"`
	Metrics telemetry.Snapshot `json:"metrics"`
}

// storeLayout fingerprints the Go shape of everything a blob serializes.
var storeLayout = store.LayoutHash(resultBlob{}, Result{})

// storeKey derives the content-addressed key for a grid cell. It rebuilds
// the workload to hash its actual topology, so editing a catalog network
// invalidates its cached results even though the name is unchanged.
func storeKey(job Job) (string, error) {
	net, err := buildWorkload(job.Workload)
	if err != nil {
		return "", err
	}
	chip, prec, err := chipFor(job.Arch)
	if err != nil {
		return "", err
	}
	key := job.cellKey()
	return store.NewKey().
		Int("schema", storeSchema).
		Str("layout", storeLayout).
		Str("runner", runnerSig).
		Str("topology", topologySignature(net)).
		Str("arch", archSignature(chip, prec)).
		Int("minibatch", int64(key.Minibatch)).
		Str("mode", key.Mode).
		Int("iters", int64(key.Iters)).
		Sum(), nil
}

// topologySignature serializes a network's full layer graph — kinds,
// names, wiring, parameters and inferred shapes — into a deterministic
// string.
func topologySignature(net *dnn.Network) string {
	var b strings.Builder
	fmt.Fprintf(&b, "net %s layers=%d;", net.Name, len(net.Layers))
	for _, l := range net.Layers {
		fmt.Fprintf(&b, "[%d %s kind=%s in=%v outch=%d conv=%+v groups=%d pool=%+v fc=%d shared=%d slice=%d act=%d %v->%v]",
			l.Index, l.Name, l.Kind, l.Inputs, l.OutChannels, l.ConvP, l.Groups,
			l.PoolP, l.OutNeurons, l.SharedWith, l.SliceFrom, l.Act, l.In, l.Out)
	}
	return b.String()
}

// archSignature serializes the chip configuration and datapath precision.
func archSignature(chip arch.ChipConfig, prec arch.Precision) string {
	return fmt.Sprintf("chip=%+v prec=%s", chip, prec)
}

// encodeBlob serializes a cell result and its telemetry snapshot. The
// encoding is deterministic (sorted snapshot, fixed field order), which is
// what lets verify-on-hit byte-compare a stored blob against a fresh
// re-simulation.
func encodeBlob(job Job, r Result, snap telemetry.Snapshot) ([]byte, error) {
	return json.Marshal(resultBlob{
		Schema: storeSchema,
		Cell:   job.Name(),
		Measure: measureBlob{
			Cycles: r.Cycles, Instructions: r.Instructions, FLOPs: r.FLOPs,
			PEUtil: r.PEUtil, CompMemBytes: r.CompMemBytes,
			MemMemBytes: r.MemMemBytes, ExtMemBytes: r.ExtMemBytes,
			NACKs: r.NACKs, Checksum: checksumJSON(r.Checksum),
			AttrCompute: r.AttrCompute, AttrDMAWait: r.AttrDMAWait,
			AttrTracker: r.AttrTracker, AttrLink: r.AttrLink,
			AttrOther: r.AttrOther,
		},
		Metrics: snap,
	})
}

// decodeBlob deserializes a stored cell result for job, rehydrating the
// cell's telemetry registry. Errors mean the payload passed the store's
// framing checks but is not a blob this binary understands — callers treat
// that as a miss and quarantine the key.
func decodeBlob(job Job, payload []byte) (Result, *telemetry.Registry, error) {
	var blob resultBlob
	if err := json.Unmarshal(payload, &blob); err != nil {
		return Result{}, nil, fmt.Errorf("sweep: stored blob for %s: %w", job.Name(), err)
	}
	if blob.Schema != storeSchema {
		return Result{}, nil, fmt.Errorf("sweep: stored blob for %s: schema %d != %d", job.Name(), blob.Schema, storeSchema)
	}
	reg, err := blob.Metrics.Restore()
	if err != nil {
		return Result{}, nil, fmt.Errorf("sweep: stored blob for %s: %w", job.Name(), err)
	}
	m := blob.Measure
	return Result{
		Job:          job,
		Cycles:       m.Cycles,
		Instructions: m.Instructions,
		FLOPs:        m.FLOPs,
		PEUtil:       m.PEUtil,
		CompMemBytes: m.CompMemBytes,
		MemMemBytes:  m.MemMemBytes,
		ExtMemBytes:  m.ExtMemBytes,
		NACKs:        m.NACKs,
		Checksum:     float32(m.Checksum),
		AttrCompute:  m.AttrCompute,
		AttrDMAWait:  m.AttrDMAWait,
		AttrTracker:  m.AttrTracker,
		AttrLink:     m.AttrLink,
		AttrOther:    m.AttrOther,
		// The store holds exact measurements only (predicted cells are
		// never written back), so every replay is exact by construction.
		Source: SourceExact,
	}, reg, nil
}

// auditHit decides deterministically whether a hit on key is re-simulated
// under Options.VerifyStore. Keying the decision on the key itself (first
// hex nibble in 0..3, a 1-in-4 sample) makes the audited subset identical
// across runs and worker counts.
func auditHit(key string) bool {
	return len(key) > 0 && key[0] >= '0' && key[0] <= '3'
}

// verifyStoredHit re-simulates an audited cell from scratch and
// byte-compares the re-encoded blob against the stored payload — the disk
// extension of the §5d -verify-memo discipline. Any difference means the
// key admitted a computation that is not actually equivalent (or the blob
// was silently altered without breaking its CRC), and fails the sweep.
func verifyStoredHit(job Job, key string, payload []byte, pool *machinePool) error {
	reg := telemetry.NewRegistry()
	r, err := runJob(job, reg, pool, telemetry.TraceContext{})
	if err != nil {
		return fmt.Errorf("sweep: store verify of %s: %w", job.Name(), err)
	}
	fresh, err := encodeBlob(job, r, reg.Snapshot())
	if err != nil {
		return fmt.Errorf("sweep: store verify of %s: %w", job.Name(), err)
	}
	if !bytes.Equal(fresh, payload) {
		return fmt.Errorf("sweep: store verification failed for %s (key %s): stored blob differs from fresh re-simulation (%d vs %d bytes)",
			job.Name(), key[:16], len(payload), len(fresh))
	}
	return nil
}
