// Package fleet is the multi-tenant control plane over one core.VMM:
// it owns VM lifecycle (create, clone-from-golden, halt, snapshot,
// restore, destroy), per-tenant quotas, console streaming cursors and
// a bounded snapshot store, and exposes it all as a programmatic API
// the monitor's command registry (and through it vaxmon's REPL and the
// HTTP surface) dispatches into. The manager holds no lock of its own:
// every entry point — REPL, HTTP handler, the drive loop — serializes
// on one machine mutex, exactly like the metrics exporter always has.
package fleet

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// Error is the control plane's typed failure: a stable machine-
// readable code plus the HTTP status the API surface maps it to. Both
// surfaces show the code — the REPL prints Error() verbatim, the HTTP
// layer sends {"error": Code, "message": Msg} with Status — so a
// quota breach is recognizably the same failure everywhere.
type Error struct {
	Code   string
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Code + ": " + e.Msg }

func errf(code string, status int, format string, args ...any) *Error {
	return &Error{Code: code, Status: status, Msg: fmt.Sprintf(format, args...)}
}

// NotFound reports a missing VM, snapshot or tenant (404).
func NotFound(format string, args ...any) *Error {
	return errf("not_found", http.StatusNotFound, format, args...)
}

// Conflict reports an operation against a VM in the wrong state, such
// as halting a halted VM or snapshotting a dead one (409).
func Conflict(format string, args ...any) *Error {
	return errf("conflict", http.StatusConflict, format, args...)
}

// BadRequest reports malformed arguments (400).
func BadRequest(format string, args ...any) *Error {
	return errf("bad_request", http.StatusBadRequest, format, args...)
}

// QuotaExceeded reports a tenant admission limit breach (429).
func QuotaExceeded(format string, args ...any) *Error {
	return errf("quota_exceeded", http.StatusTooManyRequests, format, args...)
}

// BudgetExhausted reports a tenant whose cycle budget ran dry: its VMs
// were halted and further admission is refused (403).
func BudgetExhausted(format string, args ...any) *Error {
	return errf("cycle_budget_exhausted", http.StatusForbidden, format, args...)
}

// wrapCore lifts core-layer refusals into typed API errors: physical
// memory that cannot back the request is a 503 out_of_memory, the
// machine's limit rather than the tenant's. Anything unrecognized
// passes through for the 500 path.
func wrapCore(err error) error {
	if errors.Is(err, core.ErrOutOfMemory) {
		return errf("out_of_memory", http.StatusServiceUnavailable, "%v", err)
	}
	return err
}

// HTTPStatus maps any error to the status and code the API surface
// reports. Unrecognized errors are internal (500).
func HTTPStatus(err error) (int, string) {
	var e *Error
	if errors.As(err, &e) {
		return e.Status, e.Code
	}
	return http.StatusInternalServerError, "internal"
}
