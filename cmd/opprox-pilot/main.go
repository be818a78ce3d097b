// Command opprox-pilot is a self-contained closed-loop demo: it trains a
// small model for the streaming video pipeline (the paper's FFmpeg
// benchmark), starts an opprox-serve instance on it, and replays a
// dispatch+feedback workload in which a synthetic phase shift is
// injected mid-stream — the last phase's realized behavior jumps, the
// situation a phase model faces when production inputs wander away from
// the training distribution.
//
// The timeline it prints is the server's one drift response: faithful
// reports, then shifted ones that flip the model to drifting while the
// proactive controller corrects budgets; POST /v1/retrain replays the
// telemetry log — changepoint detection trims the pre-shift rows,
// candidate models are fit and judged on a telemetry holdout — and the
// winning candidate is dark-launched as a shadow and auto-promoted once
// its realized error beats the live model's.
//
// Usage:
//
//	opprox-pilot [-budget 10] [-drift 1.6] [-deg-drift 0] [-models DIR] [-phases 2]
//
// With -models unset everything runs in a temp directory that is removed
// on exit; pass a directory to inspect the published model versions and
// the telemetry JSONL afterwards.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"opprox/internal/apps"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/lifecycle"
	"opprox/internal/retrain"
	"opprox/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("opprox-pilot: ")

	budget := flag.Float64("budget", 10, "QoS-degradation budget per dispatch")
	drift := flag.Float64("drift", 1.6, "injected drift: realized speedup = predicted * drift")
	degDrift := flag.Float64("deg-drift", 0, "additional drift: realized degradation = predicted + deg-drift")
	modelsDir := flag.String("models", "", "model store directory (default: temp dir, removed on exit)")
	phases := flag.Int("phases", 2, "phases to train the demo model with")
	flag.Parse()

	if err := run(*budget, *drift, *degDrift, *modelsDir, *phases); err != nil {
		log.Fatal(err)
	}
}

// trainAndPublish trains the demo model for the video pipeline and
// publishes it into the store the way a trainer would.
func trainAndPublish(dir string, phases int) (apps.App, string, serve.FileStore, error) {
	app := vidpipe.New()
	store := serve.FileStore{Root: dir}
	fmt.Printf("training %s model (%d phases)...\n", app.Name(), phases)
	opts := core.DefaultOptions()
	opts.Phases = phases
	opts.JointSamplesPerPhase = 6
	opts.MaxParamCombos = 3
	opts.Folds = 5
	tr, err := core.Train(apps.NewRunner(app), opts)
	if err != nil {
		return nil, "", store, err
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		return nil, "", store, err
	}
	modelName := app.Name() + ".json"
	if err := store.Put(modelName, buf.Bytes()); err != nil {
		return nil, "", store, err
	}
	return app, modelName, store, nil
}

// run is the demo: faithful telemetry, then a synthetic phase shift
// injected mid-stream, then the full retrain pipeline — extract,
// changepoint re-detection, candidate fits, holdout selection, dark
// launch — followed by feedback-driven auto-promotion.
func run(budget, drift, degDrift float64, modelsDir string, phases int) error {
	dir := modelsDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "opprox-pilot-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	app, modelName, store, err := trainAndPublish(dir, phases)
	if err != nil {
		return err
	}

	// A small rotation bound exercises segment replay: the retrain reads
	// rotated segments plus the live file as one stream.
	flog, err := feedback.OpenLogOptions(filepath.Join(dir, "telemetry.jsonl"),
		feedback.LogOptions{MaxBytes: 1 << 13})
	if err != nil {
		return err
	}
	defer flog.Close()
	srv := serve.New(serve.Options{
		Store: store,
		Drift: feedback.Options{
			Window: 8, MinSamples: 4, MaxExceedFrac: 0.5,
			CUSUMSlack: 0.02, CUSUMThreshold: 0.3, StaleAfter: 1000,
		},
		Lifecycle:   lifecycle.Options{ErrWindow: 8, MinShadowSamples: 4},
		FeedbackLog: flog,
		Retrain:     true,
		RetrainOpts: retrain.Options{MinSamples: 16},
		Proactive:   true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s (store: %s)\n\n", base, dir)

	params := apps.DefaultParams(app)
	dispatchBody := func(b float64) (string, error) {
		body, err := json.Marshal(map[string]any{
			"app": app.Name(), "budget": b, "params": params, "model_path": modelName,
		})
		return string(body), err
	}
	budgets := []float64{budget, budget * 0.75, budget * 1.25}

	// Telemetry: faithful reports, then the synthetic phase shift — the
	// LAST phase's realized behavior jumps while the others stay true to
	// the model, which is exactly the divergence re-detection looks for.
	const clean, shifted = 8, 16
	shiftPhase := phases - 1
	fmt.Printf("replaying %d faithful reports, then shifting phase %d (speedup *%.2f, degradation +%.2f) for %d more...\n",
		clean, shiftPhase, drift, degDrift, shifted)
	var d dispatchView
	var fr feedbackView
	v0 := ""
	for i := 1; i <= clean+shifted; i++ {
		body, err := dispatchBody(budgets[i%len(budgets)])
		if err != nil {
			return err
		}
		if err := postInto(base+"/v1/dispatch", body, &d); err != nil {
			return err
		}
		if v0 == "" {
			v0 = d.ModelVersion
		}
		shift := -1 // faithful: no phase shifted
		if i > clean {
			shift = shiftPhase
		}
		if err := postInto(base+"/v1/feedback", phaseShiftBody(&d, shift, drift, degDrift), &fr); err != nil {
			return err
		}
	}
	fmt.Printf("telemetry logged: %d reports (%d post-shift), drift state=%s\n\n", clean+shifted, shifted, fr.State)

	// The retrain replays the log: changepoint detection should land on
	// the injected shift, and a candidate fit on the post-shift rows
	// should beat the live model on the telemetry holdout.
	var rv retrainView
	if err := postInto(base+"/v1/retrain", fmt.Sprintf(`{"model": %q}`, modelName), &rv); err != nil {
		return err
	}
	fmt.Printf("retrain: %d rows extracted, %d train after changepoint trim (changepoint=%d diverged=%v)\n",
		rv.Rows, rv.TrainRows, rv.Segmentation.Changepoint, rv.Segmentation.Diverged)
	for _, c := range rv.Candidates {
		if c.Err != "" {
			fmt.Printf("  candidate %-12s not built: %s\n", c.Name, c.Err)
			continue
		}
		fmt.Printf("  candidate %-12s version=%s holdout_err=%.4f (live %.4f)\n",
			c.Name, c.Version, c.HoldoutErr, rv.LiveHoldoutErr)
	}
	if rv.Status != "shadow_created" {
		fmt.Printf("retrain finished without a winner (%s) — raise -drift\n", rv.Status)
		return nil
	}
	fmt.Printf("winner %q dark-launched as shadow %s\n\n", rv.Winner, rv.ShadowVersion)

	// Auto-promotion: the shifted reality keeps flowing, and the shadow's
	// realized error beats the live model's.
	promotedAt := -1
	for i := 1; i <= 12; i++ {
		body, err := dispatchBody(budgets[i%len(budgets)])
		if err != nil {
			return err
		}
		if err := postInto(base+"/v1/dispatch", body, &d); err != nil {
			return err
		}
		if err := postInto(base+"/v1/feedback", phaseShiftBody(&d, shiftPhase, drift, degDrift), &fr); err != nil {
			return err
		}
		line := fmt.Sprintf("report %d: state=%s", i, fr.State)
		if fr.Promoted {
			line += "  -> retrained shadow PROMOTED (realized-error window beat live)"
			promotedAt = i
		}
		fmt.Println(line)
		if fr.Promoted {
			break
		}
	}
	if promotedAt < 0 {
		fmt.Printf("\nno promotion after 12 reports — raise -drift\n")
		return nil
	}
	fmt.Println()
	if err := printModels(base); err != nil {
		return err
	}
	if err := postInto(base+"/v1/dispatch", fmtBody(dispatchBody, budget), &d); err != nil {
		return err
	}
	fmt.Printf("\ndispatch on retrained model: version=%s (was %s)\n", d.ModelVersion, v0)
	return nil
}

// fmtBody adapts the dispatch-body builder where an error cannot occur
// (the same arguments already marshaled in the replay loop).
func fmtBody(build func(float64) (string, error), b float64) string {
	s, _ := build(b)
	return s
}

// phaseShiftBody reports realized values faithful to the model on every
// phase except shifted, which drifts — the synthetic phase shift (a
// negative shifted reports every phase faithfully).
func phaseShiftBody(d *dispatchView, shifted int, drift, degDrift float64) string {
	var obs []string
	for ph := 0; ph < d.Phases; ph++ {
		pred := d.PhasePreds[ph]
		s, deg := pred.Speedup, pred.Degradation
		if ph == shifted {
			s, deg = s*drift, deg+degDrift
		}
		obs = append(obs, fmt.Sprintf(
			`{"phase": %d, "realized_speedup": %g, "realized_degradation": %g}`, ph, s, deg))
	}
	return fmt.Sprintf(`{"dispatch_id": %q, "observations": [%s]}`,
		d.DispatchID, strings.Join(obs, ","))
}

// retrainView mirrors the POST /v1/retrain response.
type retrainView struct {
	Status         string  `json:"status"`
	Rows           int     `json:"rows"`
	TrainRows      int     `json:"train_rows"`
	LiveHoldoutErr float64 `json:"live_holdout_err"`
	Winner         string  `json:"winner"`
	ShadowVersion  string  `json:"shadow_version"`
	Candidates     []struct {
		Name       string  `json:"name"`
		Version    string  `json:"version"`
		HoldoutErr float64 `json:"holdout_err"`
		Err        string  `json:"err"`
	} `json:"candidates"`
	Segmentation struct {
		Diverged    bool  `json:"diverged"`
		Changepoint int   `json:"changepoint"`
		Counts      []int `json:"counts"`
	} `json:"segmentation"`
}

// dispatchView and feedbackView mirror the serve API responses the demo
// reads (decoded loosely; unknown fields ignored).
type dispatchView struct {
	Phases       int     `json:"phases"`
	Speedup      float64 `json:"predicted_speedup"`
	Degradation  float64 `json:"predicted_degradation"`
	Degraded     bool    `json:"degraded"`
	DispatchID   string  `json:"dispatch_id"`
	ModelVersion string  `json:"model_version"`
	PhasePreds   []struct {
		Speedup     float64 `json:"speedup"`
		Degradation float64 `json:"degradation"`
	} `json:"phase_predictions"`
}

type feedbackView struct {
	State    string `json:"state"`
	Promoted bool   `json:"promoted"`
}

func postInto(url, body string, out any) error {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d %s", url, resp.StatusCode, b)
	}
	return json.Unmarshal(b, out)
}

func printModels(base string) error {
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var mv struct {
		Models []struct {
			Name            string `json:"name"`
			LiveVersion     string `json:"live_version"`
			PreviousVersion string `json:"previous_version"`
			Health          string `json:"health"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mv); err != nil {
		return err
	}
	for _, m := range mv.Models {
		fmt.Printf("lifecycle: %s live=%s previous=%s health=%s\n",
			m.Name, m.LiveVersion, m.PreviousVersion, m.Health)
	}
	return nil
}
