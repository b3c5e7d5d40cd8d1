package service

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// APIError is the one error body every v1 endpoint speaks:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": N}}
//
// Code is a stable machine-readable string (clients switch on it; the
// HTTP status is advisory), Message is human-readable and free to
// change, and RetryAfterMs accompanies shed-load responses (429), where
// it mirrors the Retry-After header in milliseconds.
type APIError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// The stable error codes. Admission rejections reuse the
// admissionError reason strings ("quota", "queue_full") verbatim, so
// the body code matches the reason label on the
// numagpud_admission_rejected_total metric.
const (
	// codeInvalidArgument: the request body, path, or headers failed
	// validation (HTTP 400).
	codeInvalidArgument = "invalid_argument"
	// codeNotFound: no such experiment or job (HTTP 404).
	codeNotFound = "not_found"
	// codeNotReady: the resource exists but is not in a state the
	// request can use — a /result poll on a job still queued or
	// running (HTTP 409).
	codeNotReady = "not_ready"
	// codeVersionSkew: client and coordinator derive different content
	// addresses for the same run — mixed simulator versions (HTTP 409).
	codeVersionSkew = "version_skew"
	// codeUnknownWorker: the fabric worker's registration is gone;
	// re-register (HTTP 410).
	codeUnknownWorker = "unknown_worker"
	// codeJobFailed: the job executed and failed; the message carries
	// the failure (HTTP 500).
	codeJobFailed = "job_failed"
	// codeDraining: the server is shutting down for good (HTTP 503).
	codeDraining = "draining"
)

// writeAPIError renders one error envelope.
func writeAPIError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, struct {
		Error APIError `json:"error"`
	}{APIError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeAPIErrorRetry renders a shed-load envelope: the Retry-After
// header in whole seconds (rounded up to at least 1, per RFC 9110) and
// the same hint in the body at millisecond precision.
func writeAPIErrorRetry(w http.ResponseWriter, status int, code string, retryAfter time.Duration, format string, args ...any) {
	secs := int64(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		ms = 1000 * secs
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, struct {
		Error APIError `json:"error"`
	}{APIError{Code: code, Message: fmt.Sprintf(format, args...), RetryAfterMs: ms}})
}
