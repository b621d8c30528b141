// Span archives: the JSONL persistence of distributed-tracing spans,
// sharing the header convention of the record archives. Each process —
// fetch client, relayd, origind — writes its own store's spans to its
// own file; readers merge any number of archives and stitch cross-process
// timelines by trace ID.

package traceio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
)

// WriteSpans streams spans to w as JSONL with a header line. comment is
// free-form provenance (typically the recording service and address).
func WriteSpans(w io.Writer, comment string, spans []obs.Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Schema: SchemaVersion, Kind: "spans", Comment: comment}); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans loads a span archive written by WriteSpans, returning the
// spans and the header comment.
func ReadSpans(r io.Reader) ([]obs.Span, string, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if h.Schema != SchemaVersion || h.Kind != "spans" {
		return nil, "", fmt.Errorf("%w: schema=%d kind=%q", ErrBadSchema, h.Schema, h.Kind)
	}
	var out []obs.Span
	for {
		var s obs.Span
		if err := dec.Decode(&s); err != nil {
			if errors.Is(err, io.EOF) {
				return out, h.Comment, nil
			}
			return nil, "", err
		}
		out = append(out, s)
	}
}
