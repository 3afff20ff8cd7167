package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// The exposition escapers, built once: a HELP string escapes backslash and
// newline, a label value also the double quote.
var (
	promHelpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// promNumLen bounds one rendered sample value or count: the longest
// shortest-form float64 is 24 bytes, a uint64 20.
const promNumLen = 32

// WriteProm renders the snapshot in the Prometheus text exposition format
// (version 0.0.4): one HELP/TYPE header per family, durations in seconds,
// histograms as cumulative <name>_bucket{le="..."} series plus _sum and
// _count. Returns the first write error. Beyond its bufio.Writer it
// allocates nothing: strings are escaped straight into the buffer and
// numbers are appended into its free space.
func (s Snapshot) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range s.Families {
		if f.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.Name)
			bw.WriteByte(' ')
			promHelpEscaper.WriteString(bw, f.Help)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(f.Kind.String())
		bw.WriteByte('\n')
		for _, m := range f.Metrics {
			if f.Kind == KindHistogram && m.Histogram != nil {
				writePromHist(bw, f.Name, f.Labels, m.LabelValues, m.Histogram)
				continue
			}
			bw.WriteString(f.Name)
			writePromLabels(bw, f.Labels, m.LabelValues, false, 0)
			bw.WriteByte(' ')
			bw.Write(appendPromFloat(numBuf(bw), m.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// writePromHist renders one histogram child: cumulative buckets in seconds,
// the +Inf bucket, _sum and _count.
func writePromHist(bw *bufio.Writer, name string, labels, vals []string, h *HistogramSnapshot) {
	var cum uint64
	for i := range h.Counts {
		le := math.Inf(1) // the overflow bucket
		if i < len(h.Bounds) {
			le = h.Bounds[i].Seconds()
		}
		cum += h.Counts[i]
		bw.WriteString(name)
		bw.WriteString("_bucket")
		writePromLabels(bw, labels, vals, true, le)
		bw.WriteByte(' ')
		bw.Write(strconv.AppendUint(numBuf(bw), cum, 10))
		bw.WriteByte('\n')
	}

	bw.WriteString(name)
	bw.WriteString("_sum")
	writePromLabels(bw, labels, vals, false, 0)
	bw.WriteByte(' ')
	bw.Write(appendPromFloat(numBuf(bw), float64(h.SumNanos)/1e9))
	bw.WriteByte('\n')

	bw.WriteString(name)
	bw.WriteString("_count")
	writePromLabels(bw, labels, vals, false, 0)
	bw.WriteByte(' ')
	bw.Write(strconv.AppendUint(numBuf(bw), h.Count, 10))
	bw.WriteByte('\n')
}

// writePromLabels renders {k="v",...}; a bucket line appends the pair
// le="<le>". Writes nothing when there are no pairs.
func writePromLabels(bw *bufio.Writer, labels, vals []string, bucket bool, le float64) {
	if len(labels) == 0 && !bucket {
		return
	}
	bw.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(l)
		bw.WriteString(`="`)
		promLabelEscaper.WriteString(bw, vals[i])
		bw.WriteByte('"')
	}
	if bucket {
		if len(labels) > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(`le="`)
		bw.Write(appendPromFloat(numBuf(bw), le))
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// numBuf returns bw's free space, flushing first when it could not hold a
// rendered number, so appending one never grows a slice of its own.
func numBuf(bw *bufio.Writer) []byte {
	if bw.Available() < promNumLen {
		bw.Flush() // an error sticks in bw and is returned by the final Flush
	}
	return bw.AvailableBuffer()
}

// appendPromFloat appends a sample value the way Prometheus expects:
// integral values without an exponent, +Inf/-Inf/NaN spelled out.
func appendPromFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
