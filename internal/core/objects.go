package core

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Token is a stable host-side handle for a nameless object. The paper's
// communication abstraction lets the device move the physical page at
// GC time; the token stays valid because the device announces
// relocations ("communicating peers").
type Token int64

// ObjectStore is the nameless-write object interface over a flash
// device's extended command set: the host allocates nothing and names
// nothing — the device returns physical addresses, and relocation
// callbacks keep the host's translation current. This removes the
// redundant host-side allocation/naming layer the paper criticizes
// ("extent-based allocation is irrelevant, nameless writes are
// interesting").
type ObjectStore struct {
	dev *ssd.Device

	next    Token
	byToken map[Token]ftl.PPA
	byPPA   map[ftl.PPA]Token

	// Relocations counts device-announced GC moves of live objects.
	Relocations int64
}

// NewObjectStore binds the extended commands of dev, refusing a device
// without a page FTL to place and relocate its pages.
func NewObjectStore(dev *ssd.Device) (*ObjectStore, error) {
	peer := dev.Peer()
	if peer == nil {
		return nil, fmt.Errorf("core: device lacks nameless writes: %w", ssd.ErrNamelessUnsupported)
	}
	s := &ObjectStore{
		dev:     dev,
		byToken: make(map[Token]ftl.PPA),
		byPPA:   make(map[ftl.PPA]Token),
	}
	peer.SetRelocationNotifier(s.onRelocate)
	return s, nil
}

func (s *ObjectStore) onRelocate(old, new ftl.PPA) {
	tok, ok := s.byPPA[old]
	if !ok {
		return
	}
	delete(s.byPPA, old)
	s.byPPA[new] = tok
	s.byToken[tok] = new
	s.Relocations++
}

// Put stores one page-sized object; the device chooses its location.
func (s *ObjectStore) Put(p *sim.Proc, data []byte) (Token, error) {
	c := sim.NewCond(p.Engine())
	var ppa ftl.PPA
	var perr error
	s.dev.WriteNameless(data, func(got ftl.PPA, err error) {
		ppa, perr = got, err
		c.Fire()
	})
	c.Await(p)
	if perr != nil {
		return 0, perr
	}
	s.next++
	tok := s.next
	s.byToken[tok] = ppa
	s.byPPA[ppa] = tok
	return tok, nil
}

// Get fetches an object by token.
func (s *ObjectStore) Get(p *sim.Proc, tok Token) ([]byte, error) {
	ppa, ok := s.byToken[tok]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadToken, tok)
	}
	c := sim.NewCond(p.Engine())
	var data []byte
	var rerr error
	s.dev.ReadPhys(ppa, func(d []byte, err error) {
		data, rerr = d, err
		c.Fire()
	})
	c.Await(p)
	return data, rerr
}

// Update replaces an object's contents, returning the same token
// (write-new + trim-old under the hood — out-of-place, like the FTL
// itself works).
func (s *ObjectStore) Update(p *sim.Proc, tok Token, data []byte) error {
	oldPPA, ok := s.byToken[tok]
	if !ok {
		return fmt.Errorf("%w: %d", ErrBadToken, tok)
	}
	c := sim.NewCond(p.Engine())
	var newPPA ftl.PPA
	var perr error
	s.dev.WriteNameless(data, func(got ftl.PPA, err error) {
		newPPA, perr = got, err
		c.Fire()
	})
	c.Await(p)
	if perr != nil {
		return perr
	}
	delete(s.byPPA, oldPPA)
	if err := s.dev.Peer().TrimPhys(oldPPA); err != nil {
		return err
	}
	s.byToken[tok] = newPPA
	s.byPPA[newPPA] = tok
	return nil
}

// AtomicWrite exposes the device's atomic group write for page-store
// LPNs (used by the engine's checkpointer to drop double-write
// journaling).
func AtomicWrite(p *sim.Proc, dev *ssd.Device, lpns []int64, pages [][]byte) error {
	c := sim.NewCond(p.Engine())
	var werr error
	dev.AtomicWrite(lpns, pages, func(err error) {
		werr = err
		c.Fire()
	})
	c.Await(p)
	return werr
}
