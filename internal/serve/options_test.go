package serve

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// settablePaths appends the dotted paths of t's exported leaf fields to
// out. A struct or pointer-to-struct field with exported fields of its
// own is a group of settings and is walked into; anything else (a
// scalar, an interface, a func, an opaque handle such as *feedback.Log)
// is one settable value.
func settablePaths(t reflect.Type, prefix string, out []string) []string {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			if inner := settablePaths(ft, prefix+f.Name+".", nil); len(inner) > 0 {
				out = append(out, inner...)
				continue
			}
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// TestOptionsSettableSurface pins every value an embedder can set
// through Options, the way scripts/serve-smoke.sh pins opprox-serve's
// flags: adding or removing a knob is an edit to this list. The closed
// loop's thresholds (drift detector, shadow windows, retrain minimum)
// and the admission limiter's burst, failure window and client bound
// are constants, not fields.
func TestOptionsSettableSurface(t *testing.T) {
	want := []string{
		"Admission.ClientBurst",
		"Admission.ClientRate",
		"Admission.FailureLimit",
		"Admission.GlobalRate",
		"Admission.Lockout",
		"Admission.Now",
		"FeedbackLog",
		"Lifecycle.DisableAutoPromote",
		"Lifecycle.OnSwap",
		"MaxInFlight",
		"PlanCacheCap",
		"Proactive",
		"Registry.Retries",
		"Registry.RetryBase",
		"Retrain",
		"Store",
		"Timeout",
	}
	got := settablePaths(reflect.TypeOf(Options{}), "", nil)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("serve.Options settable values changed (%d, want %d):\n got: %v\nwant: %v",
			len(got), len(want), got, want)
	}
}
