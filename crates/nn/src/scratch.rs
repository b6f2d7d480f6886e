//! Reusable scratch storage for the inference hot path.
//!
//! Every forward pass through a convolutional network allocates the same
//! sequence of buffers: one im2col column matrix per conv layer (often an
//! order of magnitude larger than the activations), one matrix-product
//! output, and one activation tensor per layer. A fault campaign repeats
//! that sequence thousands of times with identical shapes, so the inference
//! entry points ([`crate::Sequential::execute`],
//! [`crate::evaluate`]) thread a [`Scratch`] arena through the pass and
//! recycle each layer's input buffer as soon as the next layer has consumed
//! it. After the first batch, the allocation-dominated buffers — batch
//! slices, im2col columns, matrix products, activations, flatten copies —
//! all come from the pool; only the pooling layers' downsampled outputs (a
//! small fraction of the activation volume) still allocate.
//!
//! The arena never changes numerics: buffers handed out by
//! [`Scratch::zeroed`] are indistinguishable from fresh `vec![0.0; len]`
//! storage, and [`Scratch::buffer`] is only used where every element is
//! overwritten before being read.

/// A pool of recycled `f32` buffers (see the module docs).
///
/// # Example
///
/// ```
/// use ftclip_nn::Scratch;
///
/// let mut scratch = Scratch::new();
/// let buf = scratch.zeroed(128);
/// assert!(buf.iter().all(|&x| x == 0.0));
/// scratch.recycle(buf); // the next zeroed/buffer call reuses the storage
/// assert_eq!(scratch.pooled(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
}

/// Retained buffers beyond this count are dropped on [`Scratch::recycle`];
/// a forward pass keeps at most a handful of buffers in flight.
const MAX_POOLED: usize = 16;

impl Scratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Number of idle buffers currently held by the arena.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// A buffer of `len` zeros, reusing pooled storage when possible.
    pub fn zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.grab(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// A buffer of exactly `len` elements with **unspecified contents**
    /// (whatever the recycled storage last held). Only for destinations
    /// where every element is written before being read.
    pub fn buffer(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.grab(len);
        if buf.capacity() < len {
            // contents are unspecified anyway: don't let the growth realloc
            // memcpy the stale elements
            buf.clear();
        }
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if self.pool.len() < MAX_POOLED && buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Pops the **best-fitting** pooled buffer: the smallest whose capacity
    /// already covers `len`, else the largest available (it grows once),
    /// else a fresh empty one. First-fit would hand the im2col-sized buffer
    /// to tiny requests and balloon every pool entry toward the largest
    /// matrix; best-fit keeps one buffer per size class.
    fn grab(&mut self, len: usize) -> Vec<f32> {
        let fitting = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let idx = fitting
            .or_else(|| self.pool.iter().enumerate().max_by_key(|(_, b)| b.capacity()).map(|(i, _)| i));
        match idx {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_reuses_and_rezeroes() {
        let mut s = Scratch::new();
        let mut buf = s.zeroed(8);
        let ptr = buf.as_ptr();
        buf.iter_mut().for_each(|x| *x = 7.0);
        s.recycle(buf);
        let again = s.zeroed(4);
        assert_eq!(again.as_ptr(), ptr, "same storage must be reused");
        assert!(again.iter().all(|&x| x == 0.0), "recycled storage must be re-zeroed");
        assert_eq!(again.len(), 4);
    }

    #[test]
    fn buffer_has_exact_len() {
        let mut s = Scratch::new();
        s.recycle(vec![1.0; 32]);
        assert_eq!(s.buffer(8).len(), 8);
        assert_eq!(s.buffer(64).len(), 64);
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = Scratch::new();
        for _ in 0..100 {
            s.recycle(vec![0.0; 4]);
        }
        assert!(s.pooled() <= MAX_POOLED);
    }

    #[test]
    fn prefers_fitting_buffer() {
        let mut s = Scratch::new();
        s.recycle(vec![0.0; 2]);
        s.recycle(vec![0.0; 100]);
        let buf = s.zeroed(50);
        assert!(buf.capacity() >= 100, "the already-large buffer should be chosen");
    }

    #[test]
    fn best_fit_spares_the_large_buffer_for_large_requests() {
        // a small request must take the small buffer, not occupy the
        // im2col-sized one and force the next conv to regrow a tiny vec
        let mut s = Scratch::new();
        s.recycle(Vec::with_capacity(8));
        s.recycle(Vec::with_capacity(1_000));
        let small = s.zeroed(4);
        assert!(small.capacity() < 1_000, "small request must pick the small fitting buffer");
        let large = s.zeroed(900);
        assert!(large.capacity() >= 1_000, "large buffer must still be available, unregrown");
    }

    #[test]
    fn grows_the_largest_when_nothing_fits() {
        let mut s = Scratch::new();
        s.recycle(Vec::with_capacity(8));
        s.recycle(Vec::with_capacity(64));
        let buf = s.zeroed(100);
        assert_eq!(buf.len(), 100);
        assert_eq!(s.pooled(), 1);
        assert_eq!(s.pool[0].capacity(), 8, "the smaller buffer stays pooled untouched");
    }
}
