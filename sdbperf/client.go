package main

// The fleet-drain command client runs in a child process. In the
// benchmark's own process its timer wake-ups would queue behind the
// shard goroutines in the Go scheduler, so it would measure its own
// lateness; as a separate process it is scheduled by the OS and the
// fleet sees its queries arrive the way a remote client's would.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"sdb/internal/bus"
	"sdb/internal/fleet"
	"sdb/internal/pmic"
)

// clientOut is what the child prints when stdin closes. Times are Unix
// nanoseconds; query i was due at Start + i/cmdRate.
type clientOut struct {
	Start  int64   `json:"start"`
	Sent   []int64 `json:"sent"`
	Recv   []int64 `json:"recv"`
	Failed int64   `json:"failed"`
	Err    string  `json:"err,omitempty"`
}

// cmdResult is the parent's view of one round's queries.
type cmdResult struct {
	lat, late []float64 // us
	sent      int64
	failed    int64
	err       error // first failed or mismatched answer
}

// runClient is the child's main: it queries the fleet at addr until
// stdin closes, then prints a clientOut.
func runClient(addr string, seed int64, round int) int {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdbperf client:", err)
		return 1
	}
	defer conn.Close()
	stop := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(stop)
	}()
	m := newMix(seed, drainDevices, 0)
	order := m.sample(rand.New(rand.NewSource(seed+int64(round))), len(m.specs))
	out := queryLoop(conn, m, order, stop)
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "sdbperf client:", err)
		return 1
	}
	return 0
}

// queryLoop sends status queries open-loop at cmdRate over conn until
// stop closes, to the devices in order, checking every answer.
func queryLoop(conn net.Conn, m *mix, order []uint16, stop <-chan struct{}) clientOut {
	sc := bus.NewScanner(conn)
	period := time.Second / cmdRate
	t0 := time.Now()
	out := clientOut{Start: t0.UnixNano()}
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * period)
		select {
		case <-stop:
			return out
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		id := order[i%len(order)]
		req := bus.Frame{Cmd: pmic.CmdQueryStatus, Seq: byte(i), Device: id}
		err := bus.WriteFrame(conn, req)
		var resp bus.Frame
		if err == nil {
			resp, err = sc.ReadFrame()
		}
		if err != nil {
			out.Failed++
			out.Err = fmt.Sprintf("query %d: %v", i, err)
			return out
		}
		out.Sent = append(out.Sent, sent.UnixNano())
		out.Recv = append(out.Recv, time.Now().UnixNano())
		s, _ := m.spec(id)
		if err := checkAnswer(req, resp, s.cells); err != nil && out.Err == "" {
			out.Err = fmt.Sprintf("query %d: %v", i, err)
		}
	}
}

// clientProc is a running child client and the connection it is
// served on.
type clientProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    bytes.Buffer
	ln     net.Listener
	conn   net.Conn
	served chan struct{}
}

// startClient listens on a loopback port, starts the child client for
// this round and serves its connection on f.
func startClient(f *fleet.Fleet, seed int64, round int) (*clientProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &clientProc{ln: ln, served: make(chan struct{})}
	c.cmd = exec.Command(os.Args[0], "-cmd-client", ln.Addr().String(),
		"-seed", strconv.FormatInt(seed, 10), "-round", strconv.Itoa(round))
	c.cmd.Stdout, c.cmd.Stderr = &c.out, os.Stderr
	if c.stdin, err = c.cmd.StdinPipe(); err == nil {
		err = c.cmd.Start()
	}
	if err != nil {
		ln.Close()
		return nil, err
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(30 * time.Second))
	if c.conn, err = ln.Accept(); err != nil {
		c.stdin.Close()
		c.cmd.Wait()
		ln.Close()
		return nil, fmt.Errorf("client never connected: %w", err)
	}
	go func() { f.Serve(c.conn); close(c.served) }()
	return c, nil
}

// stop ends the child's queries, waits for it to exit, and turns its
// report into latencies (from when each query was due) and spans.
func (c *clientProc) stop(tr *tracer, parent int32) (cmdResult, error) {
	c.stdin.Close()
	werr := c.cmd.Wait()
	c.conn.Close()
	c.ln.Close()
	<-c.served
	if werr != nil {
		return cmdResult{}, werr
	}
	var out clientOut
	if err := json.Unmarshal(c.out.Bytes(), &out); err != nil {
		return cmdResult{}, fmt.Errorf("client report: %w", err)
	}
	r := cmdResult{sent: int64(len(out.Sent)) + out.Failed, failed: out.Failed}
	if out.Err != "" {
		r.err = errors.New(out.Err)
	}
	period := int64(time.Second / cmdRate)
	for i := range out.Sent {
		due := out.Start + int64(i)*period
		r.lat = append(r.lat, float64(out.Recv[i]-due)/1e3)
		r.late = append(r.late, float64(out.Sent[i]-due)/1e3)
		tr.span("cmd.roundtrip", parent, time.Unix(0, out.Sent[i]), time.Unix(0, out.Recv[i]))
	}
	return r, nil
}
