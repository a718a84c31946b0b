//! A small vector that keeps its first `N` elements inline.
//!
//! Point reads assemble short-lived byte strings and file lists — a
//! lookup key, a key decoded from a prefix-compressed block entry, the
//! heirs of a collected value file — that almost always fit in a few
//! dozen bytes. [`InlineVec`] holds up to `N` elements in place and moves
//! to the heap only past that, so the common case costs no allocation.

use std::ops::{Deref, DerefMut};

/// A vector of `Copy` elements stored inline up to `N`, on the heap past
/// that.
pub struct InlineVec<T: Copy + Default, const N: usize> {
    /// Number of elements; they live in `inline[..len]` while
    /// `len <= N`, in `heap` (of length `len`) otherwise.
    len: usize,
    inline: [T; N],
    heap: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (allocates nothing).
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            heap: Vec::new(),
        }
    }

    /// Drop every element past the first `len`.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        if self.len > N {
            if len <= N {
                self.inline[..len].copy_from_slice(&self.heap[..len]);
            } else {
                self.heap.truncate(len);
            }
        }
        self.len = len;
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Append `items`.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        let len = self.len + items.len();
        if len <= N {
            self.inline[self.len..len].copy_from_slice(items);
        } else {
            if self.len <= N {
                self.heap.clear();
                self.heap.extend_from_slice(&self.inline[..self.len]);
            }
            self.heap.extend_from_slice(items);
        }
        self.len = len;
    }

    /// Append one element.
    pub fn push(&mut self, item: T) {
        self.extend_from_slice(&[item]);
    }

    /// Remove and return the last element.
    pub fn pop(&mut self) -> Option<T> {
        let last = *self.last()?;
        self.truncate(self.len - 1);
        Some(last)
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.heap
        }
    }
}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Extend(Vec<u8>),
        Push(u8),
        Pop,
        Truncate(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..12).prop_map(Op::Extend),
            any::<u8>().prop_map(Op::Push),
            Just(Op::Pop),
            (0usize..24).prop_map(Op::Truncate),
        ]
    }

    proptest! {
        /// Any sequence of edits leaves the same contents as a `Vec`, on
        /// both sides of the inline capacity.
        #[test]
        fn prop_matches_a_vec(ops in proptest::collection::vec(op(), 0..40)) {
            let mut v: InlineVec<u8, 8> = InlineVec::new();
            let mut model: Vec<u8> = Vec::new();
            for op in ops {
                match op {
                    Op::Extend(items) => {
                        v.extend_from_slice(&items);
                        model.extend_from_slice(&items);
                    }
                    Op::Push(b) => {
                        v.push(b);
                        model.push(b);
                    }
                    Op::Pop => prop_assert_eq!(v.pop(), model.pop()),
                    Op::Truncate(n) => {
                        v.truncate(n);
                        model.truncate(n);
                    }
                }
                prop_assert_eq!(&v[..], &model[..]);
            }
        }
    }
}
