package server

import (
	"encoding/json"
	"strconv"
	"sync"
)

// The query answers — /topr, each /batch item, /score and /contexts —
// are encoded by hand: each body appends its JSON straight from the
// engine's Result, with no reflection and no per-result copy, into a
// pooled buffer. The bytes must equal what encoding/json writes for the
// tagged reference shapes in encode_test.go
// (TestAppendJSONMatchesEncodingJSON). Every other body is cold and
// stays on json.Encoder.

// appender is a response body that encodes itself.
type appender interface {
	appendJSON(b []byte) []byte
}

// maxPooledBuf bounds the buffers bufPool keeps: one answer with a large
// r and its contexts must not pin a large buffer for the process's life.
const maxPooledBuf = 64 << 10

// bufPool holds the buffers Server.serve encodes query answers into.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func (t *topRResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"engine":`...)
	b = appendString(b, t.Engine)
	b = append(b, `,"routed":`...)
	b = strconv.AppendBool(b, t.Routed)
	b = append(b, `,"measure":`...)
	b = appendString(b, string(t.Measure))
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, t.Res.Epoch, 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(t.K), 10)
	b = append(b, `,"r":`...)
	b = strconv.AppendInt(b, int64(t.R), 10)
	if t.Timed {
		b = append(b, `,"took_us":`...)
		b = strconv.AppendInt(b, t.TookUS, 10)
		b = append(b, `,"search_space":`...)
		b = strconv.AppendInt(b, int64(t.Searched), 10)
	}
	b = append(b, `,"results":`...)
	if len(t.Res.TopR) == 0 {
		return append(b, "null}"...)
	}
	for i, e := range t.Res.TopR {
		if i == 0 {
			b = append(b, `[{"vertex":`...)
		} else {
			b = append(b, `},{"vertex":`...)
		}
		b = strconv.AppendInt(b, int64(e.V), 10)
		b = append(b, `,"score":`...)
		b = strconv.AppendInt(b, int64(e.Score), 10)
		if t.Contexts {
			// An empty context list is omitted, as omitempty would.
			if cs := t.Res.Contexts[e.V]; len(cs) > 0 {
				b = append(b, `,"contexts":`...)
				b = appendContexts(b, cs)
			}
		}
	}
	return append(b, "}]}"...)
}

func (br *batchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"took_us":`...)
	b = strconv.AppendInt(b, br.TookUS, 10)
	b = append(b, `,"results":`...)
	if len(br.Results) == 0 {
		return append(b, "null}"...)
	}
	for i := range br.Results {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = br.Results[i].appendJSON(b)
	}
	return append(b, "]}"...)
}

func (p *pointResponse) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if p.WithContexts {
		// Unlike a /topr item, /contexts always carries the field: an
		// empty answer encodes null.
		b = append(b, `"contexts":`...)
		b = appendContexts(b, p.Contexts)
		b = append(b, ',')
	}
	b = append(b, `"k":`...)
	b = strconv.AppendInt(b, int64(p.K), 10)
	b = append(b, `,"measure":`...)
	b = appendString(b, string(p.Measure))
	b = append(b, `,"score":`...)
	b = strconv.AppendInt(b, int64(p.Score), 10)
	b = append(b, `,"vertex":`...)
	b = strconv.AppendInt(b, int64(p.Vertex), 10)
	return append(b, '}')
}

// appendContexts writes cs as encoding/json writes a [][]int32: a nil
// list or group is null, an empty non-nil one [].
func appendContexts(b []byte, cs [][]int32) []byte {
	if cs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, c := range cs {
		if i > 0 {
			b = append(b, ',')
		}
		if c == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, v := range c {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendString writes s quoted. Engine and measure names are plain
// ASCII; a string holding any byte encoding/json would escape (a control
// character, a quote or backslash, <, > or &, or any non-ASCII byte,
// which covers invalid UTF-8 and U+2028/U+2029) goes through
// json.Marshal, so the bytes match it in every case.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
