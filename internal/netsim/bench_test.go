package netsim

import (
	"context"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
)

func benchNet(b *testing.B) (*Network, *Host, *Host) {
	b.Helper()
	n := New(nil)
	b.Cleanup(n.Close)
	srv, err := n.AddHost(netip.MustParseAddr("192.0.2.1"), "srv.example", nil)
	if err != nil {
		b.Fatal(err)
	}
	cli, err := n.AddHost(netip.MustParseAddr("192.0.2.2"), "", nil)
	if err != nil {
		b.Fatal(err)
	}
	return n, srv, cli
}

func BenchmarkDialRoundTrip(b *testing.B) {
	_, srv, cli := benchNet(b)
	serve(b, srv, 80, func(c net.Conn) {
		buf := make([]byte, 4)
		io.ReadFull(c, buf) //nolint:errcheck // bench
		c.Write(buf)        //nolint:errcheck // bench
		c.Close()
	})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := cli.Dial(ctx, srv.Addr(), 80)
		if err != nil {
			b.Fatal(err)
		}
		conn.Write([]byte("ping")) //nolint:errcheck // bench
		buf := make([]byte, 4)
		if _, err := io.ReadFull(conn, buf); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

func BenchmarkPipeThroughput(b *testing.B) {
	_, srv, cli := benchNet(b)
	const chunk = 64 << 10
	serve(b, srv, 80, func(c net.Conn) {
		io.Copy(io.Discard, c) //nolint:errcheck // bench
		c.Close()
	})
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := []byte(strings.Repeat("x", chunk))
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolve(b *testing.B) {
	n, _, _ := benchNet(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Resolve("srv.example"); err != nil {
			b.Fatal(err)
		}
	}
}
