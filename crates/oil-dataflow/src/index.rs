//! Typed graph indices and index-keyed vectors.
//!
//! The toolchain threads ports, actors, channels and rate groups through
//! several crates (dataflow → CTA → compiler → simulator). Indexing all of
//! them with bare `usize` made it possible to use a port id where a channel
//! id was meant and the compiler would not notice. This module provides
//! newtype indices (via [`define_index_type!`](crate::define_index_type))
//! and [`IndexVec`], a vector that can only be indexed by its declared
//! index type, so cross-indexing mistakes become type errors.
//!
//! The shared vocabulary types — [`PortId`], [`ActorId`], [`ChannelId`],
//! [`GroupId`] — live here; crates define additional private index spaces
//! (connection ids, loop ids, simulator node ids, …) with the same macro.

use std::fmt;
use std::marker::PhantomData;

/// A typed index: a cheap copyable wrapper around a dense array position.
pub trait Idx: Copy + Eq + Ord + std::hash::Hash + fmt::Debug + 'static {
    /// Construct from a raw position.
    fn new(index: usize) -> Self;
    /// The raw position.
    fn index(self) -> usize;
}

/// Define a newtype index implementing [`Idx`].
///
/// ```
/// oil_dataflow::define_index_type! {
///     /// A node of some graph.
///     pub struct NodeId = "n";
/// }
/// # use oil_dataflow::index::Idx;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n:?}"), "n3");
/// ```
#[macro_export]
macro_rules! define_index_type {
    ($(#[$meta:meta])* $vis:vis struct $Name:ident = $prefix:literal;) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $Name(u32);

        impl $crate::index::Idx for $Name {
            #[inline]
            fn new(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize, "index space exhausted");
                $Name(index as u32)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Debug for $Name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl ::std::fmt::Display for $Name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_index_type! {
    /// A port of a CTA component (the shared vocabulary across dataflow,
    /// CTA, compiler and simulator layers).
    pub struct PortId = "p";
}

define_index_type! {
    /// An actor: a task of a task graph or an actor of an SDF graph
    /// (the two are index-compatible by construction — every task becomes
    /// one actor).
    pub struct ActorId = "a";
}

define_index_type! {
    /// A channel (FIFO, source or sink) of the flattened application graph.
    pub struct ChannelId = "ch";
}

define_index_type! {
    /// A rate-propagation group: ports whose transfer rates are coupled
    /// through `γ` ratios share a group.
    pub struct GroupId = "g";
}

/// A vector indexable only by its declared index type.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IndexVec<I: Idx, T> {
    raw: Vec<T>,
    _marker: PhantomData<fn(I) -> I>,
}

impl<I: Idx, T> IndexVec<I, T> {
    /// An empty vector.
    pub fn new() -> Self {
        IndexVec {
            raw: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// An empty vector with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        IndexVec {
            raw: Vec::with_capacity(capacity),
            _marker: PhantomData,
        }
    }

    /// Wrap an existing `Vec`, adopting its positions as indices.
    pub fn from_raw(raw: Vec<T>) -> Self {
        IndexVec {
            raw,
            _marker: PhantomData,
        }
    }

    /// `n` copies of `value`.
    pub fn from_elem(value: T, n: usize) -> Self
    where
        T: Clone,
    {
        IndexVec::from_raw(vec![value; n])
    }

    /// Append, returning the new element's index.
    pub fn push(&mut self, value: T) -> I {
        let idx = I::new(self.raw.len());
        self.raw.push(value);
        idx
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The index the next `push` will return.
    pub fn next_index(&self) -> I {
        I::new(self.raw.len())
    }

    /// The last element's index, if any.
    pub fn last_index(&self) -> Option<I> {
        self.raw.len().checked_sub(1).map(I::new)
    }

    /// Borrowing element access.
    pub fn get(&self, index: I) -> Option<&T> {
        self.raw.get(index.index())
    }

    /// Mutable element access.
    pub fn get_mut(&mut self, index: I) -> Option<&mut T> {
        self.raw.get_mut(index.index())
    }

    /// Iterate over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.raw.iter()
    }

    /// Iterate over elements mutably.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.raw.iter_mut()
    }

    /// Iterate over the valid indices.
    pub fn indices(&self) -> impl DoubleEndedIterator<Item = I> + Clone {
        (0..self.raw.len()).map(I::new)
    }

    /// Iterate over `(index, &element)` pairs.
    pub fn iter_enumerated(&self) -> impl DoubleEndedIterator<Item = (I, &T)> {
        self.raw.iter().enumerate().map(|(i, t)| (I::new(i), t))
    }

    /// Iterate over `(index, &mut element)` pairs.
    pub fn iter_enumerated_mut(&mut self) -> impl DoubleEndedIterator<Item = (I, &mut T)> {
        self.raw.iter_mut().enumerate().map(|(i, t)| (I::new(i), t))
    }

    /// The index of the first element matching `predicate`.
    pub fn position(&self, predicate: impl FnMut(&T) -> bool) -> Option<I> {
        self.raw.iter().position(predicate).map(I::new)
    }

    /// The underlying slice.
    pub fn as_slice(&self) -> &[T] {
        &self.raw
    }

    /// Consume into the underlying `Vec`.
    pub fn into_raw(self) -> Vec<T> {
        self.raw
    }
}

impl<I: Idx, T> Default for IndexVec<I, T> {
    fn default() -> Self {
        IndexVec::new()
    }
}

impl<I: Idx, T: fmt::Debug> fmt::Debug for IndexVec<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_enumerated()).finish()
    }
}

impl<I: Idx, T> std::ops::Index<I> for IndexVec<I, T> {
    type Output = T;
    #[inline]
    fn index(&self, index: I) -> &T {
        &self.raw[index.index()]
    }
}

impl<I: Idx, T> std::ops::IndexMut<I> for IndexVec<I, T> {
    #[inline]
    fn index_mut(&mut self, index: I) -> &mut T {
        &mut self.raw[index.index()]
    }
}

impl<I: Idx, T> From<Vec<T>> for IndexVec<I, T> {
    fn from(raw: Vec<T>) -> Self {
        IndexVec::from_raw(raw)
    }
}

impl<I: Idx, T> FromIterator<T> for IndexVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        IndexVec::from_raw(iter.into_iter().collect())
    }
}

impl<I: Idx, T> IntoIterator for IndexVec<I, T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.into_iter()
    }
}

impl<'a, I: Idx, T> IntoIterator for &'a IndexVec<I, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.iter()
    }
}

impl<'a, I: Idx, T> IntoIterator for &'a mut IndexVec<I, T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.iter_mut()
    }
}

impl<I: Idx, T> Extend<T> for IndexVec<I, T> {
    fn extend<It: IntoIterator<Item = T>>(&mut self, iter: It) {
        self.raw.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    define_index_type! {
        /// Test-local index.
        struct TestId = "t";
    }

    #[test]
    fn push_returns_dense_indices() {
        let mut v: IndexVec<TestId, &str> = IndexVec::new();
        let a = v.push("a");
        let b = v.push("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(v[a], "a");
        assert_eq!(v[b], "b");
        assert_eq!(v.len(), 2);
        assert_eq!(v.last_index(), Some(b));
        assert_eq!(v.next_index(), TestId::new(2));
    }

    #[test]
    fn enumerated_iteration_matches_indices() {
        let v: IndexVec<TestId, i32> = vec![10, 20, 30].into();
        let pairs: Vec<(TestId, i32)> = v.iter_enumerated().map(|(i, &x)| (i, x)).collect();
        assert_eq!(
            pairs,
            vec![
                (TestId::new(0), 10),
                (TestId::new(1), 20),
                (TestId::new(2), 30)
            ]
        );
        let idx: Vec<TestId> = v.indices().collect();
        assert_eq!(idx.len(), 3);
        assert_eq!(v.position(|&x| x == 20), Some(TestId::new(1)));
        assert_eq!(v.position(|&x| x == 99), None);
    }

    #[test]
    fn debug_formats_with_prefix() {
        assert_eq!(format!("{:?}", TestId::new(7)), "t7");
        assert_eq!(format!("{}", TestId::new(7)), "t7");
        assert_eq!(format!("{:?}", super::PortId::new(3)), "p3");
        assert_eq!(format!("{:?}", super::ChannelId::new(0)), "ch0");
    }

    #[test]
    fn from_elem_and_mutation() {
        let mut v: IndexVec<TestId, u64> = IndexVec::from_elem(0, 3);
        for (_, x) in v.iter_enumerated_mut() {
            *x += 1;
        }
        assert_eq!(v.as_slice(), &[1, 1, 1]);
        v[TestId::new(1)] = 5;
        assert_eq!(v.get(TestId::new(1)), Some(&5));
        assert_eq!(v.get(TestId::new(9)), None);
    }
}
