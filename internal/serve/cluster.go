package serve

// Sharded serving: a fleet of opprox-serve replicas splits the model
// namespace by rendezvous hashing (internal/shard), and every replica
// answers any request — for a model it owns by serving locally, for one
// it does not by proxying to the owner and relaying the owner's bytes
// verbatim.
//
// Ownership is per *model name*, which is what makes routing
// version-coherent (invariant D11): all lifecycle state for a model —
// live/previous/shadow versions, drift evidence, dispatch records —
// lives only on its owner, so a dispatch observes exactly one replica's
// live version, never a mix, even mid-promote. The proxy forwards the
// caller's raw body and relays the owner's raw response, so a proxied
// dispatch is byte-identical to one sent to the owner directly (the
// conformance suite pins this across 1- and 3-replica topologies).
//
// Loop safety: one hop, ever. A proxied request carries forwardHeader;
// a replica receiving a forwarded request always serves locally, so a
// topology disagreement between replicas degrades to one extra hop —
// never a cycle.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"opprox/internal/obs"
	"opprox/internal/shard"
)

// forwardHeader marks a request that already made its one proxy hop.
// The value is the forwarding replica's name (introspection only; the
// presence of the header is what stops re-forwarding).
const forwardHeader = "X-Opprox-Forwarded"

// maxPeerResponseBytes bounds a relayed peer response body.
const maxPeerResponseBytes = 4 << 20

// ClusterOptions configures one replica of a sharded fleet.
type ClusterOptions struct {
	// Self is this replica's name; it must appear in Replicas.
	Self string
	// Replicas maps every replica name (including Self) to its base URL
	// ("http://host:port"). All replicas must be configured with the same
	// set or requests may take an extra hop.
	Replicas map[string]string
	// Client issues proxy requests; nil uses a default with a timeout.
	Client *http.Client
}

// cluster is the sharding state of one replica.
type cluster struct {
	self   string
	table  *shard.Table
	urls   map[string]string
	client *http.Client
}

// ConfigureCluster makes this server one replica of a sharded fleet.
// Must be called before the handler serves traffic.
func (s *Server) ConfigureCluster(opts ClusterOptions) error {
	if opts.Self == "" {
		return fmt.Errorf("cluster: missing self name")
	}
	if _, ok := opts.Replicas[opts.Self]; !ok {
		return fmt.Errorf("cluster: self %q not in replica set", opts.Self)
	}
	names := make([]string, 0, len(opts.Replicas))
	for name := range opts.Replicas {
		names = append(names, name)
	}
	sort.Strings(names)
	table, err := shard.New(names...)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: s.timeout + 5*time.Second}
	}
	urls := make(map[string]string, len(opts.Replicas))
	for name, url := range opts.Replicas {
		urls[name] = url
	}
	s.cluster = &cluster{self: opts.Self, table: table, urls: urls, client: client}
	return nil
}

// proxyToOwner routes a model-keyed request to the replica that owns the
// model, relaying the owner's response verbatim. It reports whether the
// response was written. Requests are served locally when the server is
// standalone, when this replica owns the model, or when the request
// already made its one hop.
func (s *Server) proxyToOwner(w http.ResponseWriter, req *http.Request, model, path string, body []byte) bool {
	c := s.cluster
	if c == nil || model == "" {
		return false
	}
	owner, ok := c.table.Owner(model)
	if !ok || owner == c.self {
		return false
	}
	if req.Header.Get(forwardHeader) != "" {
		// A peer thought we own this model; our table disagrees. Serve
		// locally — one extra hop, never a loop.
		obs.Inc("serve.cluster.forward_disagreement")
		return false
	}
	obs.Inc("serve.cluster.proxied")
	status, hdr, respBody, err := c.post(owner, path, body, clientKey(req))
	if err != nil {
		writeError(w, err)
		return true
	}
	relay(w, status, hdr, respBody)
	return true
}

// forwardFeedback relays a feedback report whose dispatch record is not
// held locally. The record lives wherever the dispatch was served — its
// model's owner — but a report carries only the dispatch ID, so peers
// are tried in the deterministic shard.Rank order of that ID; the first
// peer that recognizes the dispatch answers. Reports whether the
// response was written.
func (s *Server) forwardFeedback(w http.ResponseWriter, req *http.Request, dispatchID string, body []byte) bool {
	c := s.cluster
	if c == nil || req.Header.Get(forwardHeader) != "" {
		return false
	}
	for _, peer := range c.table.Rank(dispatchID) {
		if peer == c.self {
			continue
		}
		status, hdr, respBody, err := c.post(peer, "/v1/feedback", body, clientKey(req))
		if err != nil {
			obs.Inc("serve.cluster.feedback_peer_error")
			continue
		}
		if status == http.StatusNotFound {
			continue
		}
		obs.Inc("serve.cluster.feedback_forwarded")
		relay(w, status, hdr, respBody)
		return true
	}
	return false
}

// post sends one proxy hop and returns the peer's raw response.
// Transport failures classify as ErrPeerUnavailable (502). The
// original client's identity travels in clientHeader so the owning
// replica accounts rate limits to the client, not to this proxy.
func (c *cluster) post(replica, path string, body []byte, client string) (status int, hdr http.Header, respBody []byte, err error) {
	url, ok := c.urls[replica]
	if !ok {
		return 0, nil, nil, fmt.Errorf("%w: no url for replica %q", ErrPeerUnavailable, replica)
	}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, replica, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, c.self)
	if client != "" {
		req.Header.Set(clientHeader, client)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, replica, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponseBytes))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: %s: reading response: %v", ErrPeerUnavailable, replica, err)
	}
	return resp.StatusCode, resp.Header, b, nil
}

// relayHeaders are the owner's response headers a proxy hop preserves:
// the content type (body bytes relay verbatim) plus the admission
// metadata — which ladder rung served the dispatch, and when to retry
// a 429.
var relayHeaders = [...]string{"Content-Type", rungHeader, "Retry-After"}

// relay writes a peer's response verbatim — status, selected headers
// and body bytes unchanged, preserving byte identity across the hop.
func relay(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	for _, name := range relayHeaders {
		if v := hdr.Get(name); v != "" {
			w.Header().Set(name, v)
		}
	}
	w.WriteHeader(status)
	w.Write(body)
}

// clusterReplica is one replica in the GET /v1/cluster view.
type clusterReplica struct {
	Name string `json:"name"`
	URL  string `json:"url,omitempty"`
	Self bool   `json:"self,omitempty"`
}

// clusterModel reports which replica owns a model this replica knows of.
type clusterModel struct {
	Name  string `json:"name"`
	Owner string `json:"owner"`
	Local bool   `json:"local"`
}

// clusterResponse is the body of GET /v1/cluster.
type clusterResponse struct {
	Sharded  bool             `json:"sharded"`
	Self     string           `json:"self,omitempty"`
	Replicas []clusterReplica `json:"replicas,omitempty"`
	Models   []clusterModel   `json:"models,omitempty"`
}

func (s *Server) handleCluster(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, fmt.Errorf("%w: %s not allowed on /v1/cluster", ErrBadRequest, req.Method))
		return
	}
	c := s.cluster
	if c == nil {
		writeJSON(w, http.StatusOK, clusterResponse{Sharded: false})
		return
	}
	resp := clusterResponse{Sharded: true, Self: c.self}
	for _, name := range c.table.Replicas() {
		resp.Replicas = append(resp.Replicas, clusterReplica{
			Name: name,
			URL:  c.urls[name],
			Self: name == c.self,
		})
	}
	models := s.mgr.Models()
	sort.Strings(models)
	for _, m := range models {
		owner, _ := c.table.Owner(m)
		resp.Models = append(resp.Models, clusterModel{Name: m, Owner: owner, Local: owner == c.self})
	}
	writeJSON(w, http.StatusOK, resp)
}
