package geo

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// WhoisPort is the conventional whois TCP port.
const WhoisPort = 43

// WhoisServer serves the Team Cymru bulk IP-to-ASN protocol, one session
// per TCP connection:
//
//	client: begin
//	        verbose
//	        203.0.113.7
//	        end
//	server: Bulk mode; whois.cymru.com [...]
//	        AS      | IP            | BGP Prefix      | CC | Registry | Allocated  | AS Name
//	        64500   | 203.0.113.7   | 203.0.113.0/24  | QA | ripencc  | 2010-01-01 | OOREDOO-AS Ooredoo Q.S.C.
type WhoisServer struct {
	Table *ASTable
}

// ServeConn handles one whois session.
func (s *WhoisServer) ServeConn(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // best-effort
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	defer bw.Flush()

	first, err := readWhoisLine(br)
	if err != nil {
		return
	}
	if !strings.EqualFold(first, "begin") {
		// Single-query mode: the first line is the IP itself.
		s.writeHeader(bw)
		s.answer(bw, first)
		return
	}
	fmt.Fprintf(bw, "Bulk mode; one IP per line. whois.sim.filtermap [simulated Team Cymru service]\r\n")
	s.writeHeader(bw)
	for {
		line, err := readWhoisLine(br)
		if err != nil || strings.EqualFold(line, "end") {
			return
		}
		if strings.EqualFold(line, "verbose") || strings.EqualFold(line, "noasname") || line == "" {
			continue
		}
		s.answer(bw, line)
		bw.Flush() //nolint:errcheck // best-effort streaming
	}
}

func (s *WhoisServer) writeHeader(bw *bufio.Writer) {
	fmt.Fprintf(bw, "AS      | IP               | BGP Prefix          | CC | Registry | Allocated  | AS Name\r\n")
}

func (s *WhoisServer) answer(bw *bufio.Writer, query string) {
	addr, err := netip.ParseAddr(strings.TrimSpace(query))
	if err != nil {
		fmt.Fprintf(bw, "Error: no ASN or IP match on line %q.\r\n", query)
		return
	}
	rec, ok := s.Table.Lookup(addr)
	if !ok {
		fmt.Fprintf(bw, "NA      | %-16s | NA                  | NA | NA       | NA         | NA\r\n", addr)
		return
	}
	fmt.Fprintf(bw, "%-7d | %-16s | %-19s | %s | %-8s | %s | %s\r\n",
		rec.ASN, addr, rec.Prefix, rec.Country, rec.Registry, "2010-01-01", rec.Name)
}

func readWhoisLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// WhoisResult is one parsed whois answer row.
type WhoisResult struct {
	Addr    netip.Addr
	ASN     int
	Country string
	ASName  string
	Found   bool
}

// WhoisDialer opens a connection to the whois service.
type WhoisDialer func(ctx context.Context) (net.Conn, error)

// WhoisClient performs bulk IP-to-ASN lookups against a WhoisServer.
type WhoisClient struct {
	Dial WhoisDialer
}

// Lookup performs a bulk query for addrs, preserving input order. Addrs
// missing from the table come back with Found=false.
func (c *WhoisClient) Lookup(ctx context.Context, addrs []netip.Addr) ([]WhoisResult, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	conn, err := c.Dial(ctx)
	if err != nil {
		return nil, fmt.Errorf("geo: dial whois: %w", err)
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl) //nolint:errcheck // best-effort
	} else {
		conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // best-effort
	}

	var req strings.Builder
	req.WriteString("begin\nverbose\n")
	for _, a := range addrs {
		req.WriteString(a.String())
		req.WriteByte('\n')
	}
	req.WriteString("end\n")
	if _, err := conn.Write([]byte(req.String())); err != nil {
		return nil, fmt.Errorf("geo: write whois query: %w", err)
	}

	byAddr := make(map[netip.Addr]WhoisResult)
	br := bufio.NewReader(conn)
	for {
		line, err := readWhoisLine(br)
		if err != nil {
			break // EOF ends the session
		}
		res, ok := parseWhoisLine(line)
		if ok {
			byAddr[res.Addr] = res
		}
	}

	out := make([]WhoisResult, len(addrs))
	for i, a := range addrs {
		if res, ok := byAddr[a]; ok {
			out[i] = res
		} else {
			out[i] = WhoisResult{Addr: a}
		}
	}
	return out, nil
}

// parseWhoisLine parses one pipe-separated answer row. Header, banner, and
// error lines yield ok=false.
func parseWhoisLine(line string) (WhoisResult, bool) {
	parts := strings.Split(line, "|")
	if len(parts) < 7 {
		return WhoisResult{}, false
	}
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	addr, err := netip.ParseAddr(parts[1])
	if err != nil {
		return WhoisResult{}, false
	}
	res := WhoisResult{Addr: addr}
	if parts[0] == "NA" {
		return res, true
	}
	asn, err := strconv.Atoi(parts[0])
	if err != nil {
		return WhoisResult{}, false
	}
	res.ASN = asn
	res.Country = parts[3]
	res.ASName = parts[6]
	res.Found = true
	return res, true
}
