package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// server is an in-process service.New(...).Handler() — the handler cmd/mctd
// mounts — on a loopback listener, with a client that keeps at most one
// connection per closed-loop worker.
type server struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	bufs   [clients]bytes.Buffer // per-worker response bodies
}

func startServer(dir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		svc: service.New(service.Config{
			CacheDir:      filepath.Join(dir, "cache"),
			CheckpointDir: filepath.Join(dir, "checkpoints"),
		}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	s.srv = &http.Server{Handler: s.svc.Handler()}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the listener and drains the service, waiting for both.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	_ = s.srv.Shutdown(ctx)
	<-s.served
	_ = s.svc.Drain(ctx)
}

// post sends one request and reads the whole response into the worker's
// buffer, which stays valid until that worker's next post. The latency
// runs from send to the last response byte.
func (s *server) post(worker int, path, contentType string, body []byte) ([]byte, time.Duration, error) {
	buf := &s.bufs[worker]
	buf.Reset()
	t0 := time.Now()
	resp, err := s.client.Post(s.url+path, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(t0), err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, fmt.Errorf("reading %s response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, lat, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), lat, nil
}

// promSnap is one scrape of /metrics?format=prometheus: every unlabelled
// sample by name (histograms contribute their _sum and _count).
type promSnap map[string]float64

func (s *server) scrape() (promSnap, error) {
	resp, err := s.client.Get(s.url + "/metrics?format=prometheus")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing metrics: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	out := promSnap{}
	for _, smp := range samples {
		if len(smp.Labels) == 0 {
			out[smp.Name] = smp.Value
		}
	}
	return out, nil
}

// meanDelta is the mean of a histogram's observations between two scrapes
// (scaled by scale), or 0 when it observed nothing.
func meanDelta(before, after promSnap, hist string, scale float64) float64 {
	n := after[hist+"_count"] - before[hist+"_count"]
	if n == 0 {
		return 0
	}
	return (after[hist+"_sum"] - before[hist+"_sum"]) / n * scale
}

// serverLayers are the per-layer metrics both service workloads read from
// the scrapes around a traced window.
func serverLayers(before, after promSnap) map[string]float64 {
	return map[string]float64{
		"service.admit_wait_mean_ms": meanDelta(before, after, "mct_admission_wait_seconds", 1e3),
		"service.classify_mean_ms":   meanDelta(before, after, "mct_classify_duration_seconds", 1e3),
	}
}

// errCheck marks an operation whose response was delivered but wrong.
var errCheck = errors.New("output check failed")
