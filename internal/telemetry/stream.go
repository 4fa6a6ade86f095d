package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
)

// The consumer side of the JSONL wire format. The producers are bus
// sinks (bus.JSONLSink writes the log file of the paper's Fig. 4,
// bus.TCPServer serves the §6 feedback path); what they emit is one
// JSON-encoded Record per line, which is all ReadAll and Client assume.

// ReadAll parses a JSONL telemetry stream back into records.
func ReadAll(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("telemetry: %w", err)
		}
		out = append(out, rec)
	}
}

// Client subscribes to a telemetry TCP stream (bus.TCPServer) and
// decodes it.
type Client struct {
	conn net.Conn
	dec  *json.Decoder
}

// Dial connects to a telemetry server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &Client{conn: conn, dec: json.NewDecoder(bufio.NewReader(conn))}, nil
}

// Next blocks for the next record.
func (c *Client) Next() (Record, error) {
	var rec Record
	if err := c.dec.Decode(&rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Close disconnects.
func (c *Client) Close() error { return c.conn.Close() }
