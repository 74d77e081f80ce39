package trace

import (
	"sort"
	"time"
)

// OpBreakdown decomposes the end-to-end latency of one kind of root
// operation into where the virtual time went — the §5.2-style attribution
// of cost to client, network and server. The five components sum exactly to
// Total: Client is computed as the residual after network and server time,
// which is correct because between RPCs the issuing process is by definition
// doing client-side work (cache management, local disk, CPU charges).
type OpBreakdown struct {
	Name      string
	Count     int
	Total     time.Duration // sum of root span durations
	Client    time.Duration // residual: client CPU, cache and local disk
	Server    time.Duration // server service time (dispatch + cost charges)
	NetQueue  time.Duration // frames waiting for busy links
	NetSerial time.Duration // frames clocking onto links
	NetProp   time.Duration // propagation + bridge store-and-forward
}

// Net returns the total network component.
func (b OpBreakdown) Net() time.Duration { return b.NetQueue + b.NetSerial + b.NetProp }

// Analyze groups root spans by name and attributes their latency using the
// accounting attributes the RPC layer stamps on every SpanRPCCall span. The
// walk descends through intermediate client-side spans (venus.open over
// venus.fetch, say) but stops at each SpanRPCCall: everything beneath it ran
// on the far side of the wire and is already covered by the call span's
// network and server attributes. (Callback breaks a server issues while
// holding a call are therefore accounted as server time, which is how the
// paper's server-centric view counts them too.) Results are sorted by name.
func Analyze(spans []*Span) []OpBreakdown {
	type key struct{ trace, span uint64 }
	index := make(map[key]*Span, len(spans))
	children := make(map[key][]*Span)
	for _, s := range spans {
		index[key{s.ctx.Trace, s.ctx.Span}] = s
	}
	for _, s := range spans {
		if s.parent != 0 && index[key{s.ctx.Trace, s.parent}] != nil {
			k := key{s.ctx.Trace, s.parent}
			children[k] = append(children[k], s)
		}
	}
	agg := make(map[string]*OpBreakdown)
	for _, s := range spans {
		if s.parent != 0 && index[key{s.ctx.Trace, s.parent}] != nil {
			continue // not a root
		}
		b := agg[s.name]
		if b == nil {
			b = &OpBreakdown{Name: s.name}
			agg[s.name] = b
		}
		var q, ser, prop, srv time.Duration
		var walk func(sp *Span)
		walk = func(sp *Span) {
			if sp.name == SpanRPCCall {
				q += time.Duration(sp.IntAttr(AttrNetQueueNs))
				ser += time.Duration(sp.IntAttr(AttrNetSerialNs))
				prop += time.Duration(sp.IntAttr(AttrNetPropNs))
				srv += time.Duration(sp.IntAttr(AttrServerNs))
				return
			}
			for _, c := range children[key{sp.ctx.Trace, sp.ctx.Span}] {
				walk(c)
			}
		}
		walk(s)
		total := time.Duration(s.Duration())
		b.Count++
		b.Total += total
		b.NetQueue += q
		b.NetSerial += ser
		b.NetProp += prop
		b.Server += srv
		b.Client += total - q - ser - prop - srv
	}
	out := make([]OpBreakdown, 0, len(agg))
	for _, b := range agg {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
