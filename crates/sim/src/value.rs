//! The value trait bound shared by all memory objects.

use core::fmt;

/// Values storable in simulated shared memory.
///
/// This is a blanket alias: any `Clone + Debug + Send + Sync + 'static`
/// type qualifies, so user code never needs to implement it by hand.
/// Registers are unbounded in the model (§1.1 of the paper), so no size
/// restriction is imposed; cheaply clonable values (indices,
/// `Arc`-backed personae) keep simulations fast.
///
/// # Examples
///
/// ```
/// fn takes_value<V: sift_sim::Value>(_: V) {}
/// takes_value(42u64);
/// takes_value("persona".to_string());
/// ```
pub trait Value: Clone + fmt::Debug + Send + Sync + 'static {}

impl<T: Clone + fmt::Debug + Send + Sync + 'static> Value for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn assert_value<V: Value>() {}

    #[test]
    fn common_types_are_values() {
        assert_value::<u64>();
        assert_value::<String>();
        assert_value::<Arc<Vec<u8>>>();
        assert_value::<Option<(u64, u32)>>();
    }
}
