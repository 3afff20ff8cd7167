package httpapi

import (
	"encoding/json"
	"time"
	"unicode/utf8"
)

// Watch-stream framing. Every record a watch stream carries is the JSON of
// one apiv1.Event, framed as an NDJSON line or an SSE event. The encoder
// below writes that JSON straight into the stream's batch buffer in one
// pass: the envelope by hand, the payload with one json.Marshal spliced
// in. Its output is byte for byte what json.Marshal(apiv1.Event{...})
// gives for the same fields with Data set to json.Marshal(payload)
// (FuzzWatchFrame holds it to that).

// appendFrame appends one framed record to dst: for NDJSON the event JSON
// and a newline, for SSE an "id:" line (when id is set), an "event:" line
// and a "data:" line holding the event JSON, then a blank line. On error
// it returns dst unchanged.
func appendFrame(dst []byte, ndjson bool, id []byte, typ, topic string, at time.Time, payload any) ([]byte, error) {
	start := len(dst)
	if !ndjson {
		if len(id) > 0 {
			dst = append(dst, "id: "...)
			dst = append(dst, id...)
			dst = append(dst, '\n')
		}
		dst = append(dst, "event: "...)
		dst = append(dst, typ...)
		dst = append(dst, "\ndata: "...)
	}
	dst, err := appendEventJSON(dst, id, typ, topic, at, payload)
	if err != nil {
		return dst[:start], err
	}
	if ndjson {
		return append(dst, '\n'), nil
	}
	return append(dst, '\n', '\n'), nil
}

// appendEventJSON appends the JSON of apiv1.Event{ID: id, Type: typ,
// Topic: topic, At: at, Data: json.Marshal(payload)} to dst, following
// the struct's tags: id and topic are omitted when empty, "at" is always
// present (omitempty does not apply to a struct), and "data" is omitted
// for a nil payload. An "at" that RFC 3339 cannot represent, or a payload
// json.Marshal rejects, is an error, and dst comes back unchanged.
func appendEventJSON(dst []byte, id []byte, typ, topic string, at time.Time, payload any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '{')
	if len(id) > 0 {
		dst = append(dst, `"id":`...)
		dst = appendJSONString(dst, id)
		dst = append(dst, ',')
	}
	dst = append(dst, `"type":`...)
	dst = appendJSONString(dst, typ)
	if topic != "" {
		dst = append(dst, `,"topic":`...)
		dst = appendJSONString(dst, topic)
	}
	dst = append(dst, `,"at":"`...)
	// AppendText is time.Time's MarshalJSON without the quotes: RFC 3339
	// with nanoseconds, and an error outside years 0-9999 or for a zone
	// offset of 24 h or more.
	withAt, err := at.AppendText(dst)
	if err != nil {
		return dst[:start], err
	}
	dst = append(withAt, '"')
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst, `,"data":`...)
		dst = append(dst, data...)
	}
	return append(dst, '}'), nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on (json.Marshal's default): quotes,
// backslashes and control bytes escaped, <, > and & as \u003c, \u003e
// and \u0026, invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode from a copy of at most UTFMax bytes: for a []byte s the
		// conversion stays on the stack.
		n := min(len(s)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
