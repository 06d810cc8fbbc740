package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/defects"
	"repro/internal/infield"
	"repro/internal/report"
)

// golden is the benchmark's recorded reference: the check seed every run's
// cold request uses, and the SHA-256 of each check-seed report as the
// execute reference engine renders it (written by -record-golden).
type golden struct {
	CheckSeed       int64   `json:"check_seed"`
	HeldOutSeed     int64   `json:"held_out_seed"`
	TuningSeeds     []int   `json:"tuning_seeds"`
	CoveragePct     float64 `json:"coverage_pct"`
	ReferenceEngine string  `json:"reference_engine"`
	// Reports maps a workload family to its per-bus report hashes.
	Reports map[string]map[string]string `json:"reports"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// verdict is what a checked report contributes to the run: the library
// defects it judged and how many were detected.
type verdict struct {
	judged   int // defect runs: library size, times the slice count in-field
	library  int
	detected int
}

// checkReport validates one job's report bytes. A check-seed report must
// hash to the recorded reference; every report must parse, cover the whole
// library, reach the expected coverage, and (in-field) carry no drift
// verdict.
func (g *golden) checkReport(w workload, spec campaign.Spec, body []byte) (verdict, error) {
	if spec.Seed == g.CheckSeed {
		want, ok := g.Reports[w.family][spec.Bus]
		if !ok {
			return verdict{}, fmt.Errorf("golden.json has no %s/%s hash", w.family, spec.Bus)
		}
		if got := sha(body); got != want {
			return verdict{}, fmt.Errorf("%s/%s check-seed report sha256 %s, want %s", w.family, spec.Bus, got, want)
		}
	}
	var v verdict
	var err error
	if spec.JobType() == campaign.TypeInfield {
		v, err = parseInfield(body)
	} else {
		v, err = parseCampaign(body)
	}
	if err != nil {
		return v, fmt.Errorf("%s report: %w", spec.Bus, err)
	}
	if v.library != defects.DefaultLibrarySize {
		return v, fmt.Errorf("%s report covers %d defects, want %d", spec.Bus, v.library, defects.DefaultLibrarySize)
	}
	if pct := 100 * float64(v.detected) / float64(v.library); pct != g.CoveragePct {
		return v, fmt.Errorf("%s report coverage %.4g%%, want %.4g%%", spec.Bus, pct, g.CoveragePct)
	}
	return v, nil
}

func parseCampaign(body []byte) (verdict, error) {
	var doc report.CampaignJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return verdict{}, err
	}
	if len(doc.Outcomes) != doc.Total {
		return verdict{}, fmt.Errorf("%d outcomes for %d defects", len(doc.Outcomes), doc.Total)
	}
	detected := 0
	for i, o := range doc.Outcomes {
		if o.Defect != i {
			return verdict{}, fmt.Errorf("outcome %d is defect %d", i, o.Defect)
		}
		if o.Detected {
			detected++
		}
	}
	if detected != doc.Detected {
		return verdict{}, fmt.Errorf("%d outcomes detected, header says %d", detected, doc.Detected)
	}
	return verdict{judged: doc.Total, library: doc.Total, detected: doc.Detected}, nil
}

// parseInfield reads the NDJSON coverage curve: header, one point per
// merged slice, summary, and an optional drift trailer.
func parseInfield(body []byte) (verdict, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return verdict{}, err
	}
	if len(lines) < 3 {
		return verdict{}, fmt.Errorf("%d NDJSON lines, want header, points and summary", len(lines))
	}
	strict := func(line []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	var head report.InfieldHeaderJSON
	if err := strict(lines[0], &head); err != nil || head.Kind != "infield" {
		return verdict{}, fmt.Errorf("bad header line: %v", err)
	}
	n := len(head.Slices)
	if len(lines) != n+2 && len(lines) != n+3 {
		return verdict{}, fmt.Errorf("%d lines for %d slices", len(lines), n)
	}
	for i := 1; i <= n; i++ {
		var pt infield.CoveragePoint
		if err := strict(lines[i], &pt); err != nil || pt.Merged != i {
			return verdict{}, fmt.Errorf("bad point line %d: %v", i, err)
		}
	}
	var sum report.InfieldSummaryJSON
	if err := strict(lines[n+1], &sum); err != nil || sum.Kind != "summary" {
		return verdict{}, fmt.Errorf("bad summary line: %v", err)
	}
	if sum.SlicesMerged != n {
		return verdict{}, fmt.Errorf("%d of %d slices merged", sum.SlicesMerged, n)
	}
	if len(lines) == n+3 {
		var drift report.InfieldDriftJSON
		if err := json.Unmarshal(lines[n+2], &drift); err != nil || drift.Kind != "drift" {
			return verdict{}, fmt.Errorf("bad drift line: %v", err)
		}
		if drift.Verdict != infield.VerdictOK {
			return verdict{}, fmt.Errorf("drift verdict %q: %v", drift.Verdict, drift.Reasons)
		}
	}
	return verdict{judged: head.Defects * n, library: head.Defects, detected: sum.Detected}, nil
}
