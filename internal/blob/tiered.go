package blob

import (
	"context"
	"errors"
)

// Tiered layers stores fastest-first into one read-through /
// write-through namespace. Get walks the tiers in order and promotes a
// lower-tier hit into every tier above it (best-effort — a failed
// promotion costs nothing but the next miss); Put writes through every
// tier, succeeding if any tier kept the bytes. A tier that errors —
// open breaker, dead disk, corrupt entry (already quarantined by the
// backend) — is skipped, so one sick tier degrades the store to its
// healthy tiers instead of failing the read.
type Tiered struct {
	tiers []Store
}

// NewTiered builds a tiered store; nil tiers are dropped. A Tiered of
// one store is that store plus nothing.
func NewTiered(tiers ...Store) *Tiered {
	t := &Tiered{}
	for _, s := range tiers {
		if s != nil {
			t.tiers = append(t.tiers, s)
		}
	}
	return t
}

// Tiers exposes the layered stores, fastest first.
func (t *Tiered) Tiers() []Store { return t.tiers }

func (t *Tiered) Get(ctx context.Context, key string) ([]byte, error) {
	var firstErr error
	for i, s := range t.tiers {
		payload, err := s.Get(ctx, key)
		if err == nil {
			// Promote upward so the next Get stops sooner. The payload
			// just passed this tier's read verification, so promotion
			// adds no check of its own; each upper tier's Put still
			// hashes it again to record the content digest (Mem.Put
			// re-hashes every promoted payload).
			for j := 0; j < i; j++ {
				_ = t.tiers[j].Put(ctx, key, payload)
			}
			return payload, nil
		}
		if !errors.Is(err, ErrNotFound) && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, ErrNotFound
}

func (t *Tiered) Put(ctx context.Context, key string, payload []byte) error {
	var firstErr error
	stored := false
	for _, s := range t.tiers {
		if err := s.Put(ctx, key, payload); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			stored = true
		}
	}
	if !stored {
		if firstErr != nil {
			return firstErr
		}
		return errors.New("blob: tiered store has no tiers")
	}
	return nil
}

func (t *Tiered) Stat(ctx context.Context, key string) (Info, error) {
	var firstErr error
	for _, s := range t.tiers {
		info, err := s.Stat(ctx, key)
		if err == nil {
			return info, nil
		}
		if !errors.Is(err, ErrNotFound) && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return Info{}, firstErr
	}
	return Info{}, ErrNotFound
}

// List merges the tiers' listings, first tier wins on duplicates.
func (t *Tiered) List(ctx context.Context) ([]Info, error) {
	seen := map[string]bool{}
	var all []Info
	var firstErr error
	for _, s := range t.tiers {
		infos, err := s.List(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, info := range infos {
			if !seen[info.Key] {
				seen[info.Key] = true
				all = append(all, info)
			}
		}
	}
	if all == nil && firstErr != nil {
		return nil, firstErr
	}
	return all, nil
}

func (t *Tiered) Delete(ctx context.Context, key string) error {
	var firstErr error
	for _, s := range t.tiers {
		if err := s.Delete(ctx, key); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
