package apiv1

// Columnar batch query wire types: POST /v1/metrics:batchQuery evaluates
// many (flow, metric, window, resample) selectors in one request and
// returns column-oriented payloads — parallel ts/vs arrays serialized
// straight from the store's columnar series, with no per-point structs.
// One batch call replaces N /metrics/query round trips; the response is
// compact JSON (no indentation) and gzip-compressed when the client
// accepts it.

// BatchQuerySelector names one aggregated series of one flow. Window and
// Period are Go duration strings with the same defaults as
// GET /v1/flows/{id}/metrics/query (30m window, 1m period); Stat accepts
// the same CloudWatch-flavoured statistic names in any letter case (empty:
// avg). A zero
// ("0s") Period selects the raw datapoints of the window, unresampled.
type BatchQuerySelector struct {
	Flow       string            `json:"flow"`
	Namespace  string            `json:"ns"`
	Name       string            `json:"name"`
	Dimensions map[string]string `json:"dims,omitempty"`
	Stat       string            `json:"stat,omitempty"`
	Window     string            `json:"window,omitempty"`
	Period     string            `json:"period,omitempty"`
}

// BatchQueryRequest is the POST /v1/metrics:batchQuery payload.
type BatchQueryRequest struct {
	Queries []BatchQuerySelector `json:"queries"`
}

// ColumnSeries is one selector's result: timestamps as unix nanoseconds
// and values as parallel arrays of equal length. A selector that failed
// (unknown flow, unknown metric, bad parameters) carries its own Error
// instead of failing the whole batch, so one render of a many-flow
// dashboard survives a deleted flow.
type ColumnSeries struct {
	Flow      string `json:"flow"`
	Namespace string `json:"ns"`
	Name      string `json:"name"`
	Stat      string `json:"stat,omitempty"`
	Period    string `json:"period,omitempty"`
	// Ts holds unix-nanosecond timestamps; Vs the values. Always equal
	// length; both empty for a selector with no data in the window.
	Ts []int64   `json:"ts"`
	Vs []float64 `json:"vs"`
	// Error is set when this selector could not be evaluated.
	Error *Error `json:"error,omitempty"`
}

// BatchQueryResponse is the POST /v1/metrics:batchQuery response;
// Results[i] answers Queries[i].
type BatchQueryResponse struct {
	Results []ColumnSeries `json:"results"`
}
