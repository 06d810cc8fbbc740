package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// service is an in-process xtalkd: a standalone campaign server, or a fleet
// coordinator fronting two workers, each on its own loopback listener. The
// client talks to it over HTTP exactly as a remote client would.
type service struct {
	base    string
	client  *http.Client
	servers []*http.Server
	done    sync.WaitGroup
}

// fleetWorkers and fleetInFlight scale the four-worker fleet of the E5
// fleet benchmark to a two-core machine: two single-slot workers and two
// shards in flight, so defect concurrency equals the core count.
const (
	fleetWorkers  = 2
	fleetInFlight = 2
)

func newService(w workload) (*service, error) {
	s := &service{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	if !w.fleet {
		url, err := s.serve(campaign.NewServer(campaign.New(campaign.Config{})))
		if err != nil {
			return nil, err
		}
		s.base = url
		return s, nil
	}
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{MaxInFlight: fleetInFlight})
	for i := 0; i < fleetWorkers; i++ {
		url, err := s.serve(fleet.NewWorker(campaign.New(campaign.Config{Workers: 1})))
		if err != nil {
			s.close()
			return nil, err
		}
		coord.Register(url)
	}
	url, err := s.serve(fleet.NewCoordinatorServer(coord))
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = url
	return s, nil
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (s *service) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server and waits for their goroutines to exit.
func (s *service) close() {
	s.client.CloseIdleConnections()
	for _, srv := range s.servers {
		srv.Close()
	}
	s.done.Wait()
}

// jobReport is one job's report bytes plus, for standalone jobs, the
// service's own Submitted/Started/Finished stamps against the client's wall.
type jobReport struct {
	spec   campaign.Spec
	body   []byte
	status *campaign.Status // nil unless requested, and for fleet jobs
	wall   time.Duration
}

// request runs one workload request: every spec is submitted at once, each
// over its own connection, and the call returns when every report has been
// read in full. withStatus additionally fetches each job's status after its
// report (outside the client's wall time).
func (s *service) request(ctx context.Context, w workload, specs []campaign.Spec, withStatus bool) ([]jobReport, error) {
	out := make([]jobReport, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec campaign.Spec) {
			defer wg.Done()
			t0 := time.Now()
			var err error
			out[i].spec = spec
			if w.fleet {
				out[i].body, err = s.fleetJob(ctx, spec)
			} else {
				var id string
				id, out[i].body, err = s.job(ctx, spec)
				out[i].wall = time.Since(t0)
				if err == nil && withStatus {
					out[i].status, err = s.status(ctx, id)
				}
			}
			if out[i].wall == 0 {
				out[i].wall = time.Since(t0)
			}
			errs[i] = err
		}(i, spec)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// job submits one spec to the standalone server, waits on its progress
// stream until it is terminal, and fetches its report.
func (s *service) job(ctx context.Context, spec campaign.Spec) (string, []byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", nil, err
	}
	var st campaign.Status
	if err := s.doJSON(ctx, http.MethodPost, "/v1/campaigns", body, http.StatusAccepted, &st); err != nil {
		return "", nil, fmt.Errorf("submit: %w", err)
	}
	watch, err := s.do(ctx, http.MethodGet, "/v1/campaigns/"+st.ID+"/watch", nil, http.StatusOK)
	if err != nil {
		return "", nil, fmt.Errorf("watch %s: %w", st.ID, err)
	}
	var last campaign.Progress
	sc := bufio.NewScanner(bytes.NewReader(watch))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return "", nil, fmt.Errorf("watch %s: %w", st.ID, err)
		}
	}
	if last.State != campaign.Done {
		return "", nil, fmt.Errorf("job %s ended %s", st.ID, last.State)
	}
	rep, err := s.do(ctx, http.MethodGet, "/v1/campaigns/"+st.ID+"/result", nil, http.StatusOK)
	if err != nil {
		return "", nil, fmt.Errorf("result %s: %w", st.ID, err)
	}
	return st.ID, rep, nil
}

func (s *service) status(ctx context.Context, id string) (*campaign.Status, error) {
	var st campaign.Status
	if err := s.doJSON(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, http.StatusOK, &st); err != nil {
		return nil, fmt.Errorf("status %s: %w", id, err)
	}
	return &st, nil
}

// fleetJob runs one spec as a synchronous fleet campaign; the response body
// is the report.
func (s *service) fleetJob(ctx context.Context, spec campaign.Spec) ([]byte, error) {
	body, err := json.Marshal(fleet.CampaignRequest{Spec: spec})
	if err != nil {
		return nil, err
	}
	rep, err := s.do(ctx, http.MethodPost, "/v1/fleet/campaigns", body, http.StatusOK)
	if err != nil {
		return nil, fmt.Errorf("fleet campaign %s: %w", spec.Bus, err)
	}
	return rep, nil
}

func (s *service) doJSON(ctx context.Context, method, path string, body []byte, want int, v any) error {
	b, err := s.do(ctx, method, path, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func (s *service) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}
