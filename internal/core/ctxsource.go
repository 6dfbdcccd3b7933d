package core

import (
	"context"

	"vida/internal/algebra"
	"vida/internal/jit"
	"vida/internal/sdg"
	"vida/internal/values"
	"vida/internal/vec"
)

// ctxCatalog decorates the engine catalog with cancellation: every
// source it hands out checks the query's context as rows and batches
// stream through, so a cancelled or timed-out query aborts mid-scan —
// including a cold first-touch scan of a large raw file — instead of
// running to completion. It is installed only for cancellable contexts;
// background-context queries keep the undecorated fast path.
type ctxCatalog struct {
	inner jit.SchemaCatalog
	ctx   context.Context
}

// Source implements algebra.Catalog.
func (c ctxCatalog) Source(name string) (algebra.Source, bool) {
	s, ok := c.inner.Source(name)
	if !ok {
		return nil, false
	}
	return &ctxSource{ctx: c.ctx, inner: s}, true
}

// Description implements jit.SchemaCatalog.
func (c ctxCatalog) Description(name string) (*sdg.Description, bool) {
	return c.inner.Description(name)
}

// ctxRowStride bounds how many rows stream between context checks on the
// record path (batch paths check per batch).
const ctxRowStride = 256

// ctxSource threads context checks into the record contract, the batch
// contract and its range form.
type ctxSource struct {
	ctx   context.Context
	inner algebra.Source
}

// Name implements algebra.Source.
func (s *ctxSource) Name() string { return s.inner.Name() }

// Iterate implements algebra.Source.
func (s *ctxSource) Iterate(fields []string, yield func(values.Value) error) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	n := 0
	return s.inner.Iterate(fields, func(v values.Value) error {
		if n++; n%ctxRowStride == 0 {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		return yield(v)
	})
}

// IterateBatches implements jit.BatchSource. The engine's catalog sources
// are all batch sources, so the schema-less adapter fallback only ever
// serves whole-value (empty fields) scans.
func (s *ctxSource) IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	return jit.ScanBatches(s.inner, nil, fields, batchSize, func(b *vec.Batch) error {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		return yield(b)
	})
}

// OpenRange implements jit.RangeBatchSource; each morsel's batches check
// the context (the scheduler additionally stops dispatching morsels of a
// done query).
func (s *ctxSource) OpenRange(fields []string) (func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, int, bool) {
	rs, ok := s.inner.(jit.RangeBatchSource)
	if !ok {
		return nil, 0, false
	}
	scan, n, ok := rs.OpenRange(fields)
	if !ok {
		return nil, 0, false
	}
	ctx := s.ctx
	return func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
		return scan(lo, hi, batchSize, func(b *vec.Batch) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return yield(b)
		})
	}, n, true
}
