//! Typed node identifiers.
//!
//! Every node kind has its own dense index space `0..count`, wrapped in a
//! newtype so user/post/attribute indices cannot be mixed up at compile time.

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The dense index of this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a dense index.
            ///
            /// # Panics
            /// Panics when `i` exceeds `u32::MAX`.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                $name(u32::try_from(i).expect("node index exceeds u32::MAX"))
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// A user node within one network.
    UserId
);
id_type!(
    /// A post (tweet/tip) node within one network.
    PostId
);
id_type!(
    /// A location attribute node (shared across networks).
    LocationId
);
id_type!(
    /// A timestamp attribute node (shared across networks).
    TimestampId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        let u = UserId::from_index(42);
        assert_eq!(u.index(), 42);
        assert_eq!(u, UserId(42));
    }

    #[test]
    fn ordering_follows_index() {
        assert!(PostId(1) < PostId(2));
        assert!(LocationId(0) <= LocationId(0));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(TimestampId(7).to_string(), "TimestampId(7)");
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn from_index_guards_overflow() {
        let _ = UserId::from_index(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }
}
