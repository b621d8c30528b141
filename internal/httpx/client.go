// A one-shot GET client over the codec, for the observability plane:
// fetch -fleet reading each relay's /debug/vars and /debug/paths,
// fetch -bundle pulling /debug/bundle, and the tests scraping /metrics.
// One fresh connection per request, the same shape the transfer paths
// use — no pooling to confuse a scrape's timing with a transfer's.

package httpx

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"time"
)

// Get fetches target ("/metrics", "/debug/paths", ...) from addr over
// one connection, with extra request headers (nil for none), bounded by
// timeout (0 means 10s). It returns the status, response headers, and
// the full body. dial may be nil for net.Dial semantics.
func Get(ctx context.Context, dial func(ctx context.Context, network, addr string) (net.Conn, error),
	addr, target string, header map[string]string, timeout time.Duration) (status int, respHeader map[string]string, body []byte, err error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	conn, err := dial(ctx, "tcp", addr)
	if err != nil {
		return 0, nil, nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	req := NewGet(target, addr)
	for k, v := range header {
		req.Header[k] = v
	}
	if err := req.Write(conn); err != nil {
		return 0, nil, nil, fmt.Errorf("httpx get %s%s: %w", addr, target, err)
	}
	resp, err := ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("httpx get %s%s: %w", addr, target, err)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.Status, resp.Header, nil, fmt.Errorf("httpx get %s%s: body: %w", addr, target, err)
	}
	return resp.Status, resp.Header, body, nil
}
