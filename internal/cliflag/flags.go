// Package cliflag holds the strict numeric flag and environment
// validation shared by every binary in cmd/: -j must be a positive
// integer or "auto", and zero, negative and garbage values are
// errors, not silent fallbacks. The rules live in one place so mhpc,
// mhpcd and jsoncheck cannot drift apart.
package cliflag

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
)

// ParseJobs validates a worker-count specification (-j /
// MHPC_PARALLEL): a positive integer, or "auto" for one worker per
// CPU. Zero, negative, and non-numeric values are rejected with a
// descriptive error rather than silently falling back to a default.
func ParseJobs(s string) (int, error) {
	if s == "auto" {
		return runtime.GOMAXPROCS(0), nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf(
			"invalid worker count %q: want a positive integer or \"auto\" (one per CPU)", s)
	}
	return n, nil
}

// PositiveInt rejects a non-positive integer flag value: the returned
// error names the flag so a CLI can surface it verbatim.
func PositiveInt(flag string, v int) error {
	if v <= 0 {
		return fmt.Errorf("invalid -%s %d: want a positive integer", flag, v)
	}
	return nil
}

// NonNegativeInt rejects a negative integer flag value (zero allowed —
// e.g. a queue depth of zero means "no waiting room", which is valid).
func NonNegativeInt(flag string, v int) error {
	if v < 0 {
		return fmt.Errorf("invalid -%s %d: want zero or a positive integer", flag, v)
	}
	return nil
}

// PositiveFloat rejects a non-positive, NaN, or infinite float flag
// value.
func PositiveFloat(flag string, v float64) error {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("invalid -%s %v: want a positive finite number", flag, v)
	}
	return nil
}

// FirstError returns the first non-nil error, so a command can
// validate a whole flag set in one expression and report the first
// violation.
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
