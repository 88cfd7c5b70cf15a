package main

import (
	"fmt"

	"pnstm/server"
)

// codecPass times the wire codec over a run's own request mix and the
// responses those requests get: AppendRequest, ParseRequest,
// AppendResponse and ParseResponse, each as one pass over the whole mix
// (one span per pass; a clock read per call would cost as much as the
// call). It stores nanoseconds and bytes per message in t.extra.
func codecPass(t *tracer, reqs []server.Request, resps []server.Response) error {
	encode := func(n int, app func(buf []byte, i int) ([]byte, error)) (ns, bytes float64, frames [][]byte, err error) {
		var scratch []byte
		sp := t.root(spCodec)
		total := 0
		for i := 0; i < n; i++ {
			if scratch, err = app(scratch[:0], i); err != nil {
				return 0, 0, nil, err
			}
			total += len(scratch)
		}
		d := t.end(sp)
		frames = make([][]byte, n)
		for i := range frames {
			f, _ := app(nil, i) // encoded without error just above
			frames[i] = f[4:]   // ParseRequest/ParseResponse take the payload
		}
		return float64(d) / float64(n), float64(total) / float64(n), frames, nil
	}
	parse := func(frames [][]byte, p func([]byte) error) (float64, error) {
		sp := t.root(spCodec)
		for _, f := range frames {
			if err := p(f); err != nil {
				return 0, err
			}
		}
		return float64(t.end(sp)) / float64(len(frames)), nil
	}

	reqNs, reqBytes, reqFrames, err := encode(len(reqs), func(buf []byte, i int) ([]byte, error) {
		return server.AppendRequest(buf, &reqs[i])
	})
	if err != nil {
		return fmt.Errorf("AppendRequest: %w", err)
	}
	respNs, respBytes, respFrames, _ := encode(len(resps), func(buf []byte, i int) ([]byte, error) {
		return server.AppendResponse(buf, &resps[i]), nil
	})
	reqParse, err := parse(reqFrames, func(f []byte) error { _, err := server.ParseRequest(f); return err })
	if err != nil {
		return fmt.Errorf("ParseRequest: %w", err)
	}
	respParse, err := parse(respFrames, func(f []byte) error { _, err := server.ParseResponse(f); return err })
	if err != nil {
		return fmt.Errorf("ParseResponse: %w", err)
	}
	t.extra["codec.req_encode_ns"] = reqNs
	t.extra["codec.req_parse_ns"] = reqParse
	t.extra["codec.resp_encode_ns"] = respNs
	t.extra["codec.resp_parse_ns"] = respParse
	t.extra["codec.req_bytes"] = reqBytes
	t.extra["codec.resp_bytes"] = respBytes
	return nil
}
