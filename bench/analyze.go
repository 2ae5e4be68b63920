package main

import (
	"sort"
	"strings"
)

// opInfo is what the spans say about one caller operation.
type opInfo struct {
	kind        string
	dur         int64
	backendBusy int64      // sum of its backend spans: parallel calls add up
	backend     []interval // the same spans, to find what part of the operation they cover
	handlerBusy int64      // handler spans of the nodes that served it
	nodes       map[string]bool
	requests    int   // HTTP requests the client sent
	received    int64 // response body bytes the client read
	nodeSpans   int
	docPuts     int
	probeMisses int
}

// interval is a span's extent on one node.
type interval struct {
	node       string
	start, end int64
}

// covered is the total length of the union of the intervals, node by
// node: what a parent's self time leaves out. Calls that ran side by
// side on a worker pool count once.
func covered(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool {
		if iv[i].node != iv[j].node {
			return iv[i].node < iv[j].node
		}
		return iv[i].start < iv[j].start
	})
	var total int64
	for i := 0; i < len(iv); {
		node, start, end := iv[i].node, iv[i].start, iv[i].end
		for i++; i < len(iv) && iv[i].node == node && iv[i].start <= end; i++ {
			end = max(end, iv[i].end)
		}
		total += end - start
	}
	return total
}

func (o *opInfo) isSave() bool    { return strings.HasPrefix(o.kind, "save") }
func (o *opInfo) isRecover() bool { return strings.HasPrefix(o.kind, "recover") }

// fanOut is the number of nodes that did the operation's storage work:
// per-node figures divide by it.
func (o *opInfo) fanOut() float64 { return float64(max(1, len(o.nodes))) }

// analyze turns the linked spans of one traced loop into the in-situ
// per-layer metrics. setBytes is the logical size of one set. All times
// are per caller operation: the loop's length varies, its mix does not.
func analyze(spans []span, setBytes int64, out map[string]float64) {
	ops := map[uint64]*opInfo{}
	for i := range spans {
		if s := &spans[i]; strings.HasPrefix(s.Name, "op.") {
			ops[s.ID] = &opInfo{kind: strings.TrimPrefix(s.Name, "op."), dur: s.dur(), nodes: map[string]bool{}}
		}
	}
	if len(ops) == 0 {
		return
	}

	var backendBusy, unattributed, written, read int64
	var puts, gets, notFound int
	routeBusy := map[string]int64{}
	var routerBusy, nodeBusy, waited int64
	slowestChild := map[uint64]int64{} // router span -> its slowest node handler
	routerSpans := map[uint64]int64{}
	for i := range spans {
		s := &spans[i]
		op := ops[s.Op]
		layer, what, _ := strings.Cut(s.Name, ".")
		switch layer {
		case "backend":
			backendBusy += s.dur()
			if op == nil {
				unattributed += s.dur()
			} else {
				op.backendBusy += s.dur()
				op.backend = append(op.backend, interval{s.Node, s.Start, s.End})
			}
			switch what {
			case "put":
				puts++
				written += s.Bytes
				if op != nil && s.Store == "docs" {
					op.docPuts++
				}
			case "get", "getrange":
				gets++
				read += s.Bytes
			}
			if s.Status == "notfound" {
				notFound++
				if op != nil && s.Store == "blobs" && what == "get" {
					op.probeMisses++
				}
			}
		case "handler":
			routeBusy[what] += s.dur()
			nodeBusy += s.dur()
			waited += s.Waited
			if op != nil {
				op.handlerBusy += s.dur()
				op.nodes[s.Node] = true
				op.nodeSpans++
			}
			if d := s.Waited + s.dur(); d > slowestChild[s.Parent] {
				slowestChild[s.Parent] = d
			}
		case "router":
			routerBusy += s.dur()
			routerSpans[s.ID] = s.dur()
		case "http":
			if op != nil {
				op.requests++
				op.received += s.Bytes
			}
		}
	}

	n := float64(len(ops))
	var wall int64
	var saves, recovers, derived, probed float64
	var saveSelf, recoverSelf, saveBackend, recoverBackend float64
	var pullRequests, docPuts, nodeSpans, probeMisses float64
	var derivedReceived int64
	for _, o := range ops {
		wall += o.dur
		// Self time is what the innermost wrapped seam above the
		// backend spent outside it: the node's handler when a server
		// did the work, the caller's own call otherwise.
		inner := o.dur
		if o.handlerBusy > 0 {
			inner = o.handlerBusy
		}
		self := float64(inner-covered(o.backend)) / o.fanOut()
		busy := float64(o.backendBusy) / o.fanOut()
		switch {
		case o.isSave():
			saves++
			saveSelf += self
			saveBackend += busy
			docPuts += float64(o.docPuts) / o.fanOut()
			nodeSpans += float64(o.nodeSpans)
		case o.isRecover():
			recovers++
			recoverSelf += self
			recoverBackend += busy
			pullRequests += float64(o.requests)
			if o.kind == kindNames[recoverU3] {
				derived++
				derivedReceived += o.received
			}
		}
		if !o.isSave() {
			probed++
			probeMisses += float64(o.probeMisses)
		}
	}
	const ms = 1e6
	out["backend.busy_ms"] = float64(backendBusy) / ms / n
	out["backend.put_ops"] = float64(puts) / n
	out["backend.get_ops"] = float64(gets) / n
	out["backend.notfound_ops"] = float64(notFound) / n
	out["backend.bytes_written"] = float64(written) / n
	out["backend.bytes_read"] = float64(read) / n
	out["trace.unattributed_ratio"] = ratio(float64(unattributed), float64(backendBusy))
	out["core.save_self_ms"] = ratio(saveSelf, saves) / ms
	out["core.recover_self_ms"] = ratio(recoverSelf, recovers) / ms
	out["backend.save_busy_ms"] = ratio(saveBackend, saves) / ms
	out["backend.recover_busy_ms"] = ratio(recoverBackend, recovers) / ms
	out["docstore.ops_per_save"] = ratio(docPuts, saves)
	out["cas.raw_probe_miss_per_recover"] = ratio(probeMisses, probed)

	// The client-server layers: shares of the callers' wall time.
	w := float64(wall)
	for _, r := range []string{"save", "recover", "recipe", "chunk"} {
		out["server."+r+"_busy_ratio"] = float64(routeBusy[r]) / w
	}
	if nodeBusy > 0 {
		// What the callers did not spend waiting for the first server
		// they talk to: the router, which waits for its nodes itself, or
		// the one node, whose queue the callers wait in.
		served := nodeBusy + waited
		if routerBusy > 0 {
			served = routerBusy
		}
		out["server.client_self_ratio"] = (w - float64(served)) / w
		out["server.queue_wait_ratio"] = float64(waited) / w
		out["server.requests_per_pull"] = ratio(pullRequests, recovers)
		out["server.wire_ratio"] = ratio(float64(derivedReceived), derived*float64(setBytes))
	}
	if routerBusy > 0 {
		var self int64
		for id, d := range routerSpans {
			self += d - slowestChild[id]
		}
		out["cluster.router_self_ratio"] = float64(self) / w
		out["cluster.node_busy_ratio"] = float64(nodeBusy) / w
		out["cluster.requests_per_save"] = ratio(nodeSpans, saves)
	}
}

// ratio is a/b, and 0 when there is no b to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
