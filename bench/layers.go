package main

// phaseSpans is one phase's spans, split by seam.
type phaseSpans struct {
	ops, calls, stores []span
}

func splitSpans(all []span) (write, read phaseSpans) {
	for _, s := range all {
		p := &write
		if s.Phase == phaseRead {
			p = &read
		}
		switch s.Kind {
		case kindOp:
			p.ops = append(p.ops, s)
		case kindCall:
			p.calls = append(p.calls, s)
		case kindStore:
			p.stores = append(p.stores, s)
		}
	}
	return write, read
}

func intervals(spans []span) []interval {
	iv := make([]interval, len(spans))
	for i, s := range spans {
		iv[i] = interval{s.Start, s.End}
	}
	return iv
}

// layerTimes is where one phase's op time went, by layer, in ms per op.
type layerTimes struct {
	clientSelf float64 // op − ∪call: plan, walk, gather/scatter, encode
	iodSelf    float64 // ∪call − ∪store: transport, daemon queue, pattern evaluation
	storeBusy  float64 // ∪store
	callP50    float64
	callP99    float64
	inflight   float64 // Σcall ÷ ∪call: how full the request window ran
	reqBytes   int64
	respBytes  int64
}

func (p *phaseSpans) times() layerTimes {
	var t layerTimes
	nops := float64(len(p.ops))
	if nops == 0 {
		return t
	}
	byOp := make(map[int64][]interval, len(p.ops))
	var callMS []float64
	var callSum int64
	for _, c := range p.calls {
		byOp[c.Op] = append(byOp[c.Op], interval{c.Start, c.End})
		callMS = append(callMS, float64(c.End-c.Start)/1e6)
		callSum += c.End - c.Start
		t.reqBytes += c.ReqBytes
		t.respBytes += c.RespBytes
	}
	var self int64
	for _, o := range p.ops {
		self += selfTime(interval{o.Start, o.End}, byOp[o.Op])
	}
	calls, stores := union(intervals(p.calls)), union(intervals(p.stores))
	callCover := coverLen(calls)
	t.clientSelf = float64(self) / 1e6 / nops
	t.iodSelf = float64(callCover-overlapLen(calls, stores)) / 1e6 / nops
	t.storeBusy = float64(coverLen(stores)) / 1e6 / nops
	t.callP50 = percentile(callMS, 50)
	t.callP99 = percentile(callMS, 99)
	if callCover > 0 {
		t.inflight = float64(callSum) / float64(callCover)
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inSituMetrics turns one traced deployment's spans and counter deltas
// into the per-layer metrics. Ratios are per op or per request, so the
// deterministic ones repeat exactly whatever the number of rounds.
func inSituMetrics(w *workload, m *measured, spans []span) map[string]metric {
	ws, rs := splitSpans(spans)
	wt, rt := ws.times(), rs.times()
	out := map[string]metric{
		"client.write.self_ms_per_op": {wt.clientSelf, "ms"},
		"client.read.self_ms_per_op":  {rt.clientSelf, "ms"},
		"pvfsnet.write.call_ms_p50":   {wt.callP50, "ms"},
		"pvfsnet.write.call_ms_p99":   {wt.callP99, "ms"},
		"pvfsnet.read.call_ms_p50":    {rt.callP50, "ms"},
		"pvfsnet.read.call_ms_p99":    {rt.callP99, "ms"},
		"pvfsnet.write.inflight_mean": {wt.inflight, "count"},
		"pvfsnet.read.inflight_mean":  {rt.inflight, "count"},
		"iod.write.self_ms_per_op":    {wt.iodSelf, "ms"},
		"iod.read.self_ms_per_op":     {rt.iodSelf, "ms"},
		"store.write.busy_ms_per_op":  {wt.storeBusy, "ms"},
		"store.read.busy_ms_per_op":   {rt.storeBusy, "ms"},
		"trace.spans":                 {float64(len(spans)), "count"},
		"wire.req_bytes_per_op":       {ratio(float64(rt.reqBytes), float64(len(rs.ops))), "B"},
	}

	ops := float64(m.write.ops + m.read.ops)
	cl := m.after.client.Sub(m.before.client)
	out["client.req_per_op"] = metric{ratio(float64(cl.Requests), ops), "count"}
	out["client.retries"] = metric{float64(cl.Retries), "count"}
	out["meta.mgr_req_per_op"] = metric{ratio(float64(cl.MgrRequests), ops), "count"}
	if w.regions > 0 {
		out["client.regions_per_req"] = metric{ratio(float64(w.regions)*ops, float64(cl.Requests)), "count"}
	}

	a, b := m.after.iod, m.before.iod
	reqs := float64(a.Requests - b.Requests)
	out["iod.req_per_op"] = metric{ratio(reqs, ops), "count"}
	out["iod.regions_per_req"] = metric{ratio(float64(a.Regions-b.Regions), reqs), "count"}
	out["iod.list_req_per_op"] = metric{ratio(float64(a.ListRequests-b.ListRequests), ops), "count"}
	out["iod.dtype_req_per_op"] = metric{ratio(float64(a.DatatypeRequests-b.DatatypeRequests), ops), "count"}
	out["iod.type_bytes_per_op"] = metric{ratio(float64(a.TypeBytes-b.TypeBytes), ops), "B"}
	sys := float64(a.StoreSyscallsRead - b.StoreSyscallsRead + a.StoreSyscallsWrite - b.StoreSyscallsWrite)
	out["store.calls_per_req"] = metric{ratio(float64(len(ws.stores)+len(rs.stores)), reqs), "count"}
	out["store.syscalls_per_req"] = metric{ratio(sys, reqs), "count"}
	out["store.submissions_per_req"] = metric{ratio(float64(a.StoreSubmissions-b.StoreSubmissions), reqs), "count"}
	userW, userR := float64(a.BytesWritten-b.BytesWritten), float64(a.BytesRead-b.BytesRead)
	out["store.bytes_copied_per_byte"] = metric{ratio(float64(a.StoreBytesCopied-b.StoreBytesCopied), userW+userR), "ratio"}
	out["store.bytes_written_per_user_byte"] = metric{ratio(float64(a.StoreBytesWritten-b.StoreBytesWritten), userW), "ratio"}
	out["store.bytes_read_per_user_byte"] = metric{ratio(float64(a.StoreBytesRead-b.StoreBytesRead), userR), "ratio"}
	if userW+userR > 0 {
		wireBytes := float64(wt.reqBytes + wt.respBytes + rt.reqBytes + rt.respBytes)
		out["wire.bytes_per_payload_byte"] = metric{wireBytes / (userW + userR), "ratio"}
	}
	if w.opts.cacheBytes > 0 {
		hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
		out["store.cache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
		out["store.cache.misses_per_op"] = metric{ratio(misses, ops), "count"}
		out["store.cache.flushes_per_op"] = metric{ratio(float64(a.CacheFlushes-b.CacheFlushes), ops), "count"}
	}
	if w.opts.meta {
		ma, mb := m.after.meta, m.before.meta
		creates := float64(m.write.ops)
		out["meta.call_ms_p50"] = metric{wt.callP50, "ms"}
		out["meta.proposals_per_batch"] = metric{ratio(float64(ma.MetaProposals-mb.MetaProposals), float64(ma.MetaBatches-mb.MetaBatches)), "count"}
		out["meta.append_rounds_per_create"] = metric{ratio(float64(ma.MetaAppendRounds-mb.MetaAppendRounds), creates), "count"}
		out["meta.wal_syncs_per_create"] = metric{ratio(float64(ma.MetaWALSyncs-mb.MetaWALSyncs), creates), "count"}
		out["meta.forwards_per_op"] = metric{ratio(float64(ma.MetaForwards-mb.MetaForwards), ops), "count"}
		out["meta.elections"] = metric{float64(ma.ElectionCount - mb.ElectionCount), "count"}
	}

	out["proc.allocs_per_op"] = metric{ratio(float64(m.after.mem.Mallocs-m.before.mem.Mallocs), ops), "count"}
	out["proc.alloc_bytes_per_op"] = metric{ratio(float64(m.after.mem.TotalAlloc-m.before.mem.TotalAlloc), ops), "B"}
	out["proc.gc_pause_ms_total"] = metric{float64(m.after.mem.PauseTotalNs-m.before.mem.PauseTotalNs) / 1e6, "ms"}
	return out
}
