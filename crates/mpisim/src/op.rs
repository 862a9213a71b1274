//! Reduction operations for `reduce` / `allreduce` / `scan`.
//!
//! Built-in ops cover the usual MPI set. A user-defined op is a function
//! value the application passes with every call, like a built-in, so there
//! is no op handle table: a restarted rank passes the same op again and a
//! checkpoint has nothing to record for it.

use crate::datatype::BasicType;
use crate::error::{MpiError, Result};
use std::sync::Arc;

/// The signature of a user-defined reduction function: combine `a` into `b`
/// elementwise (`b[i] = op(a[i], b[i])`) for elements of the given basic type.
pub type UserOpFn = Arc<dyn Fn(&[u8], &mut [u8], BasicType) + Send + Sync>;

/// A reduction operation: either a built-in or a user function.
#[derive(Clone)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// A user operation; `name` only labels it in diagnostics.
    User { name: String, f: UserOpFn },
}

impl std::fmt::Debug for ReduceOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceOp::Sum => write!(f, "Sum"),
            ReduceOp::Prod => write!(f, "Prod"),
            ReduceOp::Min => write!(f, "Min"),
            ReduceOp::Max => write!(f, "Max"),
            ReduceOp::User { name, .. } => write!(f, "User({name})"),
        }
    }
}

macro_rules! combine_builtin {
    ($a:expr, $b:expr, $ty:ty, $op:expr) => {{
        let ea = $a.chunks_exact(std::mem::size_of::<$ty>());
        let eb = $b.chunks_exact_mut(std::mem::size_of::<$ty>());
        for (ca, cb) in ea.zip(eb) {
            let x = <$ty>::from_le_bytes(ca.try_into().unwrap());
            let y = <$ty>::from_le_bytes((&*cb).try_into().unwrap());
            let r: $ty = $op(x, y);
            cb.copy_from_slice(&r.to_le_bytes());
        }
    }};
}

/// Apply `op` elementwise: `b[i] = op(a[i], b[i])` over raw little-endian
/// buffers of `ty` elements. `a` and `b` must have equal length, a multiple
/// of the element size.
pub fn apply_op(op: &ReduceOp, a: &[u8], b: &mut [u8], ty: BasicType) -> Result<()> {
    if a.len() != b.len() || !a.len().is_multiple_of(ty.size()) {
        return Err(MpiError::InvalidArg(format!(
            "reduce buffers disagree: {} vs {} bytes (elem {})",
            a.len(),
            b.len(),
            ty.size()
        )));
    }
    match (op, ty) {
        (ReduceOp::User { f, .. }, _) => f(a, b, ty),
        (ReduceOp::Sum, BasicType::F64) => combine_builtin!(a, b, f64, |x, y| x + y),
        (ReduceOp::Sum, BasicType::F32) => combine_builtin!(a, b, f32, |x, y| x + y),
        (ReduceOp::Sum, BasicType::I32) => {
            combine_builtin!(a, b, i32, |x: i32, y: i32| x.wrapping_add(y))
        }
        (ReduceOp::Sum, BasicType::I64) => {
            combine_builtin!(a, b, i64, |x: i64, y: i64| x.wrapping_add(y))
        }
        (ReduceOp::Sum, BasicType::U64) => {
            combine_builtin!(a, b, u64, |x: u64, y: u64| x.wrapping_add(y))
        }
        (ReduceOp::Sum, BasicType::U8) => {
            combine_builtin!(a, b, u8, |x: u8, y: u8| x.wrapping_add(y))
        }
        (ReduceOp::Prod, BasicType::F64) => combine_builtin!(a, b, f64, |x, y| x * y),
        (ReduceOp::Prod, BasicType::F32) => combine_builtin!(a, b, f32, |x, y| x * y),
        (ReduceOp::Prod, BasicType::I32) => {
            combine_builtin!(a, b, i32, |x: i32, y: i32| x.wrapping_mul(y))
        }
        (ReduceOp::Prod, BasicType::I64) => {
            combine_builtin!(a, b, i64, |x: i64, y: i64| x.wrapping_mul(y))
        }
        (ReduceOp::Prod, BasicType::U64) => {
            combine_builtin!(a, b, u64, |x: u64, y: u64| x.wrapping_mul(y))
        }
        (ReduceOp::Prod, BasicType::U8) => {
            combine_builtin!(a, b, u8, |x: u8, y: u8| x.wrapping_mul(y))
        }
        (ReduceOp::Min, BasicType::F64) => combine_builtin!(a, b, f64, |x: f64, y: f64| x.min(y)),
        (ReduceOp::Min, BasicType::F32) => combine_builtin!(a, b, f32, |x: f32, y: f32| x.min(y)),
        (ReduceOp::Min, BasicType::I32) => combine_builtin!(a, b, i32, |x: i32, y: i32| x.min(y)),
        (ReduceOp::Min, BasicType::I64) => combine_builtin!(a, b, i64, |x: i64, y: i64| x.min(y)),
        (ReduceOp::Min, BasicType::U64) => combine_builtin!(a, b, u64, |x: u64, y: u64| x.min(y)),
        (ReduceOp::Min, BasicType::U8) => combine_builtin!(a, b, u8, |x: u8, y: u8| x.min(y)),
        (ReduceOp::Max, BasicType::F64) => combine_builtin!(a, b, f64, |x: f64, y: f64| x.max(y)),
        (ReduceOp::Max, BasicType::F32) => combine_builtin!(a, b, f32, |x: f32, y: f32| x.max(y)),
        (ReduceOp::Max, BasicType::I32) => combine_builtin!(a, b, i32, |x: i32, y: i32| x.max(y)),
        (ReduceOp::Max, BasicType::I64) => combine_builtin!(a, b, i64, |x: i64, y: i64| x.max(y)),
        (ReduceOp::Max, BasicType::U64) => combine_builtin!(a, b, u64, |x: u64, y: u64| x.max(y)),
        (ReduceOp::Max, BasicType::U8) => combine_builtin!(a, b, u8, |x: u8, y: u8| x.max(y)),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::{bytes_of, vec_from_bytes};

    #[test]
    fn sum_f64() {
        let a = [1.0f64, 2.0, 3.0];
        let mut b = bytes_of(&[10.0f64, 20.0, 30.0]).to_vec();
        apply_op(&ReduceOp::Sum, bytes_of(&a), &mut b, BasicType::F64).unwrap();
        let r: Vec<f64> = vec_from_bytes(&b);
        assert_eq!(r, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn min_max_i32() {
        let a = [5i32, -7, 0];
        let mut b = bytes_of(&[3i32, -2, 9]).to_vec();
        apply_op(&ReduceOp::Min, bytes_of(&a), &mut b, BasicType::I32).unwrap();
        assert_eq!(vec_from_bytes::<i32>(&b), vec![3, -7, 0]);
        let mut c = bytes_of(&[3i32, -2, 9]).to_vec();
        apply_op(&ReduceOp::Max, bytes_of(&a), &mut c, BasicType::I32).unwrap();
        assert_eq!(vec_from_bytes::<i32>(&c), vec![5, -2, 9]);
    }

    #[test]
    fn user_op_applies_by_value() {
        let xor = ReduceOp::User {
            name: "xor64".into(),
            f: Arc::new(|a, b, ty| {
                assert_eq!(ty, BasicType::U64);
                for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact_mut(8)) {
                    let x = u64::from_le_bytes(ca.try_into().unwrap());
                    let y = u64::from_le_bytes((&*cb).try_into().unwrap());
                    cb.copy_from_slice(&(x ^ y).to_le_bytes());
                }
            }),
        };
        let a = [0b1010u64];
        let mut b = bytes_of(&[0b0110u64]).to_vec();
        apply_op(&xor, bytes_of(&a), &mut b, BasicType::U64).unwrap();
        assert_eq!(vec_from_bytes::<u64>(&b), vec![0b1100]);
    }

    #[test]
    fn mismatched_buffers_rejected() {
        let a = [1.0f64];
        let mut b = vec![0u8; 4];
        assert!(apply_op(&ReduceOp::Sum, bytes_of(&a), &mut b, BasicType::F64).is_err());
    }
}
