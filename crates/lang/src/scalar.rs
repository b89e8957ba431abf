//! Scalar values and the one definition of what the language's operators
//! compute on them.
//!
//! The sequential interpreter, the SPMD VM (`pdc-spmd`) and the static
//! walk (`pdc-report`) all call [`binop`] and [`unop`]; none of them
//! carries a copy of these rules. The rules:
//!
//! * two integers give an integer, computed exactly: `+`, `-`, `*` and
//!   negation fault on overflow; `/` and `div` are Euclidean division and
//!   `mod` the Euclidean remainder, all three faulting on a zero divisor;
//! * two integers compare as integers, exactly;
//! * an integer meeting a float is converted to `f64` first, so mixed
//!   arithmetic gives a float and mixed comparisons compare floats; float
//!   arithmetic follows IEEE 754 and never faults (`1.0 / 0.0` is `inf`);
//! * `and`/`or`/`not` take booleans, `==`/`!=` also compare two booleans;
//!   any other operand type is a type error. `and`/`or` are strict here;
//!   the sequential interpreter short-circuits before calling [`binop`].

use crate::ast::{BinOp, UnOp};
use std::fmt;

/// A scalar value: what locals hold, what I-structure cells store, and
/// what messages carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl Scalar {
    /// Integer view.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Scalar::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view: the mixed-operand conversion of the rules above.
    fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Int(v) => Some(v as f64),
            Scalar::Float(v) => Some(v),
            Scalar::Bool(_) => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The scalar's type.
    pub fn ty(self) -> ScalarType {
        match self {
            Scalar::Int(_) => ScalarType::Int,
            Scalar::Float(_) => ScalarType::Float,
            Scalar::Bool(_) => ScalarType::Bool,
        }
    }

    /// Short type name for diagnostics.
    pub fn type_name(self) -> &'static str {
        self.ty().name()
    }
}

/// The type of a [`Scalar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarType {
    /// [`Scalar::Int`].
    Int,
    /// [`Scalar::Float`].
    Float,
    /// [`Scalar::Bool`].
    Bool,
}

impl ScalarType {
    /// The type's name in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ScalarType::Int => "int",
            ScalarType::Float => "float",
            ScalarType::Bool => "bool",
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Float(v) => write!(f, "{v}"),
            Scalar::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Int(v)
    }
}

impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Float(v)
    }
}

impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}

/// Why an operator has no result. Each interpreter turns it into its own
/// kind of failure: a run-time error, a process fault, or ⊤. It takes a
/// few bytes, so a `Result<Scalar, OpError>` is no larger than a `Scalar`
/// and the VM's and the walk's hot paths carry it in registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The integer result lies outside `i64`.
    Overflow,
    /// An integer `/`, `div` or `mod` by zero.
    ZeroDivisor,
    /// A binary operator given operand types it does not take.
    Binary(BinOp, ScalarType, ScalarType),
    /// A unary operator given an operand type it does not take.
    Unary(UnOp, ScalarType),
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Overflow => write!(f, "integer overflow"),
            OpError::ZeroDivisor => write!(f, "division by zero"),
            OpError::Binary(op, l, r) => {
                write!(f, "cannot apply `{op}` to {} and {}", l.name(), r.name())
            }
            OpError::Unary(op, v) => write!(f, "cannot apply `{op}` to {}", v.name()),
        }
    }
}

/// Apply a binary operator. `and`/`or` are strict.
///
/// # Errors
///
/// [`OpError`]: integer overflow, an integer zero divisor, or operand
/// types the operator does not take.
#[inline]
pub fn binop(op: BinOp, l: Scalar, r: Scalar) -> Result<Scalar, OpError> {
    // Nearly everything a program computes is index arithmetic and loop
    // tests on integers.
    if let (Scalar::Int(a), Scalar::Int(b)) = (l, r) {
        return int_binop(op, a, b);
    }
    binop_other(op, l, r)
}

#[inline]
fn int_binop(op: BinOp, a: i64, b: i64) -> Result<Scalar, OpError> {
    use BinOp::*;
    use Scalar::{Bool, Int};
    let v = match op {
        Add => a.checked_add(b),
        Sub => a.checked_sub(b),
        Mul => a.checked_mul(b),
        Div | FloorDiv | Mod if b == 0 => return Err(OpError::ZeroDivisor),
        Div | FloorDiv => a.checked_div_euclid(b),
        // Only `i64::MIN mod -1` wraps, and its remainder is 0.
        Mod => Some(a.wrapping_rem_euclid(b)),
        Min => Some(a.min(b)),
        Max => Some(a.max(b)),
        Eq => return Ok(Bool(a == b)),
        Ne => return Ok(Bool(a != b)),
        Lt => return Ok(Bool(a < b)),
        Le => return Ok(Bool(a <= b)),
        Gt => return Ok(Bool(a > b)),
        Ge => return Ok(Bool(a >= b)),
        And | Or => return Err(OpError::Binary(op, ScalarType::Int, ScalarType::Int)),
    };
    v.map(Int).ok_or(OpError::Overflow)
}

/// [`binop`] on anything but two integers.
fn binop_other(op: BinOp, l: Scalar, r: Scalar) -> Result<Scalar, OpError> {
    use BinOp::*;
    use Scalar::{Bool, Float};
    let (a, b) = match (op, l, r) {
        (And, Bool(a), Bool(b)) => return Ok(Bool(a && b)),
        (Or, Bool(a), Bool(b)) => return Ok(Bool(a || b)),
        (Eq, Bool(a), Bool(b)) => return Ok(Bool(a == b)),
        (Ne, Bool(a), Bool(b)) => return Ok(Bool(a != b)),
        (And | Or, ..) => return Err(OpError::Binary(op, l.ty(), r.ty())),
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(OpError::Binary(op, l.ty(), r.ty())),
        },
    };
    // Two numbers, at least one of them a float.
    Ok(match op {
        Add => Float(a + b),
        Sub => Float(a - b),
        Mul => Float(a * b),
        Div => Float(a / b),
        FloorDiv => Float((a / b).floor()),
        Mod => Float(a - b * (a / b).floor()),
        Min => Float(a.min(b)),
        Max => Float(a.max(b)),
        Eq => Bool(a == b),
        Ne => Bool(a != b),
        Lt => Bool(a < b),
        Le => Bool(a <= b),
        Gt => Bool(a > b),
        Ge => Bool(a >= b),
        And | Or => unreachable!("`and`/`or` take booleans"),
    })
}

/// Apply a unary operator.
///
/// # Errors
///
/// [`OpError::Overflow`] for `-i64::MIN`; [`OpError::Unary`] for `-` on a
/// boolean or `not` on a number.
#[inline]
pub fn unop(op: UnOp, v: Scalar) -> Result<Scalar, OpError> {
    match (op, v) {
        (UnOp::Neg, Scalar::Int(x)) => x.checked_neg().map(Scalar::Int).ok_or(OpError::Overflow),
        (UnOp::Neg, Scalar::Float(x)) => Ok(Scalar::Float(-x)),
        (UnOp::Not, Scalar::Bool(b)) => Ok(Scalar::Bool(!b)),
        _ => Err(OpError::Unary(op, v.ty())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BinOp::*;
    use Scalar::{Bool as B, Float as F, Int as I};
    use ScalarType as T;

    /// Equal as values, with floats compared bit for bit (so `-0.0`
    /// differs from `0.0`) except that any NaN matches any NaN.
    fn same(a: Result<Scalar, OpError>, b: Result<Scalar, OpError>) -> bool {
        match (a, b) {
            (Ok(F(x)), Ok(F(y))) => (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits(),
            (a, b) => a == b,
        }
    }

    fn ty(op: BinOp, l: ScalarType, r: ScalarType) -> Result<Scalar, OpError> {
        Err(OpError::Binary(op, l, r))
    }

    const OVERFLOW: Result<Scalar, OpError> = Err(OpError::Overflow);
    const ZERO: Result<Scalar, OpError> = Err(OpError::ZeroDivisor);
    const P53: i64 = 9007199254740992; // 2^53
    const P53_1: i64 = 9007199254740993; // 2^53 + 1, not a float
    const MAX: i64 = 9223372036854775807;
    const MIN: i64 = -9223372036854775808;
    const NAN: f64 = f64::NAN;
    const INF: f64 = f64::INFINITY;

    /// Every expected value is a literal: nothing here is computed by the
    /// module under test or by the operation it checks.
    #[test]
    fn binop_truth_table() {
        let rows: &[(BinOp, Scalar, Scalar, Result<Scalar, OpError>)] = &[
            // int op int: exact, overflow faults
            (Add, I(2), I(3), Ok(I(5))),
            (Add, I(P53), I(1), Ok(I(9007199254740993))),
            (Add, I(MAX), I(1), OVERFLOW),
            (Add, I(MIN), I(-1), OVERFLOW),
            (Sub, I(P53_1), I(P53), Ok(I(1))),
            (Sub, I(MIN), I(1), OVERFLOW),
            (Sub, I(0), I(MIN), OVERFLOW),
            (Sub, I(-1), I(MAX), Ok(I(-9223372036854775808))),
            (Mul, I(-3), I(4), Ok(I(-12))),
            (Mul, I(MAX), I(2), OVERFLOW),
            (Mul, I(MIN), I(-1), OVERFLOW),
            (Mul, I(4294967296), I(2147483648), OVERFLOW),
            (Mul, I(4294967296), I(-2147483648), Ok(I(MIN))),
            // Euclidean division and remainder, negative operands
            (Div, I(7), I(2), Ok(I(3))),
            (Div, I(-7), I(2), Ok(I(-4))),
            (Div, I(7), I(-2), Ok(I(-3))),
            (Div, I(-7), I(-2), Ok(I(4))),
            (Div, I(1), I(0), ZERO),
            (Div, I(MIN), I(-1), OVERFLOW),
            (FloorDiv, I(-7), I(2), Ok(I(-4))),
            (FloorDiv, I(7), I(-2), Ok(I(-3))),
            (FloorDiv, I(-7), I(-2), Ok(I(4))),
            (FloorDiv, I(0), I(0), ZERO),
            (FloorDiv, I(MIN), I(-1), OVERFLOW),
            (FloorDiv, I(MIN), I(2), Ok(I(-4611686018427387904))),
            (Mod, I(7), I(2), Ok(I(1))),
            (Mod, I(-7), I(2), Ok(I(1))),
            (Mod, I(7), I(-2), Ok(I(1))),
            (Mod, I(-7), I(-2), Ok(I(1))),
            (Mod, I(-1), I(4), Ok(I(3))),
            (Mod, I(5), I(0), ZERO),
            (Mod, I(MIN), I(-1), Ok(I(0))),
            (Mod, I(MIN), I(MAX), Ok(I(9223372036854775806))),
            (Min, I(MIN), I(MAX), Ok(I(MIN))),
            (Max, I(MIN), I(MAX), Ok(I(MAX))),
            (Min, I(P53_1), I(P53), Ok(I(9007199254740992))),
            (Max, I(P53_1), I(P53), Ok(I(9007199254740993))),
            // int op int comparisons are exact at and beyond 2^53
            (Eq, I(3), I(3), Ok(B(true))),
            (Eq, I(P53_1), I(P53), Ok(B(false))),
            (Ne, I(P53_1), I(P53), Ok(B(true))),
            (Lt, I(P53), I(P53_1), Ok(B(true))),
            (Le, I(P53_1), I(P53), Ok(B(false))),
            (Gt, I(P53_1), I(P53), Ok(B(true))),
            (Ge, I(P53), I(P53_1), Ok(B(false))),
            (Eq, I(MAX), I(9223372036854775806), Ok(B(false))),
            (Lt, I(9223372036854775806), I(MAX), Ok(B(true))),
            (Gt, I(MIN), I(-9223372036854775807), Ok(B(false))),
            (Le, I(MIN), I(MIN), Ok(B(true))),
            (Ge, I(-9007199254740993), I(-9007199254740992), Ok(B(false))),
            (And, I(1), I(1), ty(And, T::Int, T::Int)),
            (Or, I(0), I(1), ty(Or, T::Int, T::Int)),
            // float op float: IEEE 754, no faults
            (Add, F(0.5), F(0.25), Ok(F(0.75))),
            (Sub, F(1.0), F(1.0), Ok(F(0.0))),
            (Mul, F(-0.0), F(1.0), Ok(F(-0.0))),
            (Div, F(1.0), F(0.0), Ok(F(INF))),
            (Div, F(1.0), F(-0.0), Ok(F(-INF))),
            (Div, F(0.0), F(0.0), Ok(F(NAN))),
            (FloorDiv, F(-7.0), F(2.0), Ok(F(-4.0))),
            (FloorDiv, F(7.5), F(2.0), Ok(F(3.0))),
            (Mod, F(-7.0), F(2.0), Ok(F(1.0))),
            (Mod, F(7.5), F(2.0), Ok(F(1.5))),
            (Mod, F(1.0), F(0.0), Ok(F(NAN))),
            (Min, F(1.0), F(NAN), Ok(F(1.0))),
            (Max, F(NAN), F(2.0), Ok(F(2.0))),
            (Add, F(NAN), F(1.0), Ok(F(NAN))),
            (Eq, F(NAN), F(NAN), Ok(B(false))),
            (Ne, F(NAN), F(NAN), Ok(B(true))),
            (Lt, F(NAN), F(1.0), Ok(B(false))),
            (Ge, F(NAN), F(1.0), Ok(B(false))),
            (Eq, F(0.0), F(-0.0), Ok(B(true))),
            (Lt, F(-0.0), F(0.0), Ok(B(false))),
            (Le, F(-0.0), F(0.0), Ok(B(true))),
            (And, F(1.0), F(1.0), ty(And, T::Float, T::Float)),
            // mixed int/float: the int becomes an f64
            (Add, I(1), F(2.5), Ok(F(3.5))),
            (Add, F(2.5), I(1), Ok(F(3.5))),
            (Add, I(P53_1), F(0.0), Ok(F(9007199254740992.0))),
            (Div, I(1), F(0.0), Ok(F(INF))),
            (Div, F(1.0), I(0), Ok(F(INF))),
            (Mod, I(-7), F(2.0), Ok(F(1.0))),
            (FloorDiv, I(7), F(2.0), Ok(F(3.0))),
            (Min, I(3), F(2.5), Ok(F(2.5))),
            (Max, I(3), F(2.5), Ok(F(3.0))),
            (Sub, I(MIN), F(1.0), Ok(F(-9223372036854775808.0))),
            (Eq, I(2), F(2.0), Ok(B(true))),
            (Eq, I(P53_1), F(9007199254740992.0), Ok(B(true))),
            (Gt, I(P53_1), F(9007199254740992.0), Ok(B(false))),
            (Eq, I(MAX), F(9223372036854775808.0), Ok(B(true))),
            (Ne, I(1), F(NAN), Ok(B(true))),
            (Lt, F(-0.0), I(0), Ok(B(false))),
            (Eq, I(0), F(-0.0), Ok(B(true))),
            // booleans
            (And, B(true), B(true), Ok(B(true))),
            (And, B(true), B(false), Ok(B(false))),
            (And, B(false), B(true), Ok(B(false))),
            (Or, B(false), B(false), Ok(B(false))),
            (Or, B(false), B(true), Ok(B(true))),
            (Eq, B(true), B(true), Ok(B(true))),
            (Ne, B(true), B(false), Ok(B(true))),
            (Eq, B(true), I(1), ty(Eq, T::Bool, T::Int)),
            (Lt, B(false), B(true), ty(Lt, T::Bool, T::Bool)),
            (Add, B(true), I(1), ty(Add, T::Bool, T::Int)),
            (Min, I(1), B(true), ty(Min, T::Int, T::Bool)),
            (Mod, F(1.0), B(false), ty(Mod, T::Float, T::Bool)),
            (And, B(true), I(1), ty(And, T::Bool, T::Int)),
            (Or, F(0.0), B(true), ty(Or, T::Float, T::Bool)),
        ];
        for &(op, l, r, want) in rows {
            let got = binop(op, l, r);
            assert!(
                same(got, want),
                "{l:?} {op} {r:?}: got {got:?}, want {want:?}"
            );
        }
    }

    #[test]
    fn unop_truth_table() {
        let neg = UnOp::Neg;
        let not = UnOp::Not;
        let rows: &[(UnOp, Scalar, Result<Scalar, OpError>)] = &[
            (neg, I(5), Ok(I(-5))),
            (neg, I(0), Ok(I(0))),
            (neg, I(MAX), Ok(I(-9223372036854775807))),
            (neg, I(-9223372036854775807), Ok(I(MAX))),
            (neg, I(MIN), OVERFLOW),
            (neg, I(P53_1), Ok(I(-9007199254740993))),
            (neg, F(0.0), Ok(F(-0.0))),
            (neg, F(-0.0), Ok(F(0.0))),
            (neg, F(NAN), Ok(F(NAN))),
            (neg, F(INF), Ok(F(-INF))),
            (neg, F(2.5), Ok(F(-2.5))),
            (not, B(true), Ok(B(false))),
            (not, B(false), Ok(B(true))),
            (neg, B(true), Err(OpError::Unary(UnOp::Neg, T::Bool))),
            (not, I(1), Err(OpError::Unary(UnOp::Not, T::Int))),
            (not, F(0.0), Err(OpError::Unary(UnOp::Not, T::Float))),
        ];
        for &(op, v, want) in rows {
            let got = unop(op, v);
            assert!(same(got, want), "{op} {v:?}: got {got:?}, want {want:?}");
        }
    }

    /// Which operand types each operator takes, over every pair of
    /// int (`i`), float (`f`) and bool (`b`) operands: the result's type,
    /// or `-` for a type error.
    #[test]
    fn every_operator_over_every_operand_type() {
        let pairs = [
            (I(6), I(4)),
            (I(6), F(4.0)),
            (I(6), B(true)),
            (F(6.0), I(4)),
            (F(6.0), F(4.0)),
            (F(6.0), B(true)),
            (B(true), I(4)),
            (B(true), F(4.0)),
            (B(true), B(false)),
        ];
        //  operand pairs:       ii  if  ib  fi  ff  fb  bi  bf  bb
        let table: &[(BinOp, [&str; 9])] = &[
            (Add, ["i", "f", "-", "f", "f", "-", "-", "-", "-"]),
            (Sub, ["i", "f", "-", "f", "f", "-", "-", "-", "-"]),
            (Mul, ["i", "f", "-", "f", "f", "-", "-", "-", "-"]),
            (Div, ["i", "f", "-", "f", "f", "-", "-", "-", "-"]),
            (FloorDiv, ["i", "f", "-", "f", "f", "-", "-", "-", "-"]),
            (Mod, ["i", "f", "-", "f", "f", "-", "-", "-", "-"]),
            (Min, ["i", "f", "-", "f", "f", "-", "-", "-", "-"]),
            (Max, ["i", "f", "-", "f", "f", "-", "-", "-", "-"]),
            (Eq, ["b", "b", "-", "b", "b", "-", "-", "-", "b"]),
            (Ne, ["b", "b", "-", "b", "b", "-", "-", "-", "b"]),
            (Lt, ["b", "b", "-", "b", "b", "-", "-", "-", "-"]),
            (Le, ["b", "b", "-", "b", "b", "-", "-", "-", "-"]),
            (Gt, ["b", "b", "-", "b", "b", "-", "-", "-", "-"]),
            (Ge, ["b", "b", "-", "b", "b", "-", "-", "-", "-"]),
            (And, ["-", "-", "-", "-", "-", "-", "-", "-", "b"]),
            (Or, ["-", "-", "-", "-", "-", "-", "-", "-", "b"]),
        ];
        for (op, kinds) in table {
            for ((l, r), want) in pairs.iter().zip(kinds) {
                let got = match binop(*op, *l, *r) {
                    Ok(I(_)) => "i",
                    Ok(F(_)) => "f",
                    Ok(B(_)) => "b",
                    Err(OpError::Binary(..)) => "-",
                    Err(e) => panic!("{l:?} {op} {r:?}: {e}"),
                };
                assert_eq!(got, *want, "{l:?} {op} {r:?}");
            }
        }
    }

    #[test]
    fn errors_read_as_the_vm_words_them() {
        assert_eq!(OpError::Overflow.to_string(), "integer overflow");
        assert_eq!(OpError::ZeroDivisor.to_string(), "division by zero");
        assert_eq!(
            binop(FloorDiv, I(1), B(true)).unwrap_err().to_string(),
            "cannot apply `div` to int and bool"
        );
        assert_eq!(
            unop(UnOp::Not, F(1.0)).unwrap_err().to_string(),
            "cannot apply `not` to float"
        );
    }

    #[test]
    fn a_result_is_no_larger_than_a_scalar() {
        let scalar = std::mem::size_of::<Scalar>();
        assert_eq!(std::mem::size_of::<Result<Scalar, OpError>>(), scalar);
    }

    #[test]
    fn views() {
        assert_eq!(Scalar::Int(3).as_f64(), Some(3.0));
        assert_eq!(Scalar::Float(2.5).as_int(), None);
        assert_eq!(Scalar::Bool(true).as_bool(), Some(true));
        assert_eq!(Scalar::Int(1).type_name(), "int");
    }

    #[test]
    fn conversions() {
        assert_eq!(Scalar::from(5i64), Scalar::Int(5));
        assert_eq!(Scalar::from(1.5f64), Scalar::Float(1.5));
        assert_eq!(Scalar::from(true), Scalar::Bool(true));
    }
}
