package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"rescue/internal/campaign"
)

// semanticDigest is the SHA-256 of a campaign summary's canonical JSON
// with the search-cost counters zeroed: Quality.PODEMCalls,
// Quality.Backtracks and Safety.CrossCheckBacktracks measure how hard
// PODEM searched, not what the flow concluded, and a faster search may
// legitimately lower them. Every other field — coverage, Suspicious,
// FITs, rollups — stays pinned. The summary itself is not modified.
func semanticDigest(sum *campaign.Summary) (string, error) {
	c := *sum
	c.Results = make([]campaign.Result, len(sum.Results))
	for i, r := range sum.Results {
		if r.Report != nil {
			rep := *r.Report
			rep.Quality.PODEMCalls = 0
			rep.Quality.Backtracks = 0
			rep.Safety.CrossCheckBacktracks = 0
			r.Report = &rep
		}
		c.Results[i] = r
	}
	js, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("digest: %v", err)
	}
	h := sha256.Sum256(js)
	return hex.EncodeToString(h[:]), nil
}

// digestsJSON holds the expected semantic digest of every matrix any
// workload can run, keyed by digestKey. `perfbench record` regenerates
// it through campaign.Run; a deliberate change to the flow's results
// re-records it and declares the change.
//
//go:embed digests.json
var digestsJSON []byte

func storedDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %v", err)
	}
	return d, nil
}

// digestKey names one matrix of a workload's input pool.
func digestKey(workload string, m campaign.Matrix) string {
	if workload == serverMixed {
		return fmt.Sprintf("%s/%s/%d", workload, m.Circuits[0], m.Seed)
	}
	return fmt.Sprintf("%s/%d", workload, m.Seed)
}

// record runs every matrix of every workload's input pool through
// campaign.Run and writes their digests to path.
func record(path string) error {
	out := make(map[string]string)
	for _, w := range workloadNames {
		for _, m := range inputPool(w) {
			sum, err := campaign.Run(context.Background(), m, campaign.Config{DisableStageCache: true})
			if err != nil {
				return fmt.Errorf("record %s seed %d: %v", w, m.Seed, err)
			}
			if sum.Failed > 0 || sum.Canceled > 0 {
				return fmt.Errorf("record %s seed %d: %d jobs failed", w, m.Seed, sum.Failed+sum.Canceled)
			}
			d, err := semanticDigest(sum)
			if err != nil {
				return err
			}
			out[digestKey(w, m)] = d
		}
	}
	js, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d digests to %s\n", len(out), path)
	return nil
}
