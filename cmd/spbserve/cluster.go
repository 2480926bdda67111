package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"spbtree/internal/cluster"
	"spbtree/internal/metric"
)

// routerState is spbserve's router-mode machinery: the scatter-gather
// router, its serving-layer adapter, and the placement file the admin
// endpoints keep in sync.
type routerState struct {
	r             *cluster.Router
	backend       *cluster.ServerBackend
	placementFile string
}

// openCluster builds the router from a cluster config (and, when present,
// the persisted placement written by spbcluster init/rebalance).
func openCluster(cfgPath, placementFile string) (*routerState, parsers, error) {
	cc, err := cluster.LoadConfig(cfgPath)
	if err != nil {
		return nil, parsers{}, err
	}
	placement := cc.Placement()
	if placementFile != "" {
		if b, rerr := os.ReadFile(placementFile); rerr == nil {
			var p cluster.Placement
			if err := json.Unmarshal(b, &p); err != nil {
				return nil, parsers{}, fmt.Errorf("parse %s: %w", placementFile, err)
			}
			placement = &p
		} else if !os.IsNotExist(rerr) {
			return nil, parsers{}, rerr
		}
	}
	_, codec, ps, err := resolve(metric.Space{Type: cc.Type, Dim: cc.Dim, MaxLen: cc.MaxLen})
	if err != nil {
		return nil, parsers{}, err
	}
	r, err := cluster.NewRouter(placement, codec)
	if err != nil {
		return nil, parsers{}, err
	}
	// A node answering ErrNotOwner means a rebalance completed behind this
	// router's back; re-reading the persisted placement catches it up.
	if placementFile != "" {
		r.Refresh = func(context.Context) (*cluster.Placement, error) {
			b, err := os.ReadFile(placementFile)
			if err != nil {
				return nil, err
			}
			var p cluster.Placement
			if err := json.Unmarshal(b, &p); err != nil {
				return nil, err
			}
			return &p, nil
		}
	}
	r.Publish("spbcluster_router")
	return &routerState{r: r, backend: &cluster.ServerBackend{R: r, Curve: cc.Curve},
		placementFile: placementFile}, ps, nil
}

// adminMux mounts the router-mode admin endpoints in front of the standard
// query API.
func (rs *routerState) adminMux(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("GET /admin/placement", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rs.r.Placement())
	})
	mux.HandleFunc("POST /admin/placement", func(w http.ResponseWriter, r *http.Request) {
		var p cluster.Placement
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := rs.r.SetPlacement(&p); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"version":%d}`+"\n", p.Version)
	})
	mux.HandleFunc("POST /admin/handoff", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Shard int    `json:"shard"`
			To    string `json:"to"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := rs.r.Handoff(r.Context(), req.Shard, req.To); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		np := rs.r.Placement()
		if rs.placementFile != "" {
			b, _ := json.MarshalIndent(np, "", "  ")
			if err := os.WriteFile(rs.placementFile, append(b, '\n'), 0o644); err != nil {
				http.Error(w, fmt.Sprintf("handoff done, but persisting placement failed: %v", err),
					http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"version":%d}`+"\n", np.Version)
	})
	return mux
}
