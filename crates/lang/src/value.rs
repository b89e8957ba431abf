//! Run-time values of the sequential interpreter.

use crate::scalar::Scalar;
use pdc_istructure::{IMatrix, IStructure};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A scalar run-time value or an I-structure handle.
///
/// Arrays are reference values (handles), matching Id Nouveau: passing an
/// I-structure to a procedure lets the callee define its elements — that is
/// how `init-boundary New` works in the paper's Figure 1.
#[derive(Debug, Clone)]
pub enum Value {
    /// The result of a procedure that falls off the end without `return`.
    Unit,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Handle to a 1-D I-structure.
    Vector(Rc<RefCell<IStructure<Value>>>),
    /// Handle to a 2-D I-structure.
    Matrix(Rc<RefCell<IMatrix<Value>>>),
}

impl Value {
    /// Allocate a fresh 1-D structure of length `n`.
    pub fn new_vector(n: usize) -> Value {
        Value::Vector(Rc::new(RefCell::new(IStructure::new(n))))
    }

    /// Allocate a fresh 2-D structure.
    pub fn new_matrix(rows: usize, cols: usize) -> Value {
        Value::Matrix(Rc::new(RefCell::new(IMatrix::new(rows, cols))))
    }

    /// A short description of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Vector(_) => "vector",
            Value::Matrix(_) => "matrix",
        }
    }

    /// Is this a scalar (storable in an I-structure cell)?
    pub fn is_scalar(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_) | Value::Bool(_))
    }

    /// The scalar this value is, if it is one.
    pub fn as_scalar(&self) -> Option<Scalar> {
        match self {
            Value::Int(v) => Some(Scalar::Int(*v)),
            Value::Float(v) => Some(Scalar::Float(*v)),
            Value::Bool(v) => Some(Scalar::Bool(*v)),
            _ => None,
        }
    }
}

impl From<Scalar> for Value {
    fn from(v: Scalar) -> Self {
        match v {
            Scalar::Int(v) => Value::Int(v),
            Scalar::Float(v) => Value::Float(v),
            Scalar::Bool(v) => Value::Bool(v),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            // Mixed numeric comparison for test convenience.
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            // Arrays compare by contents (empty cells must match too).
            (Value::Vector(a), Value::Vector(b)) => *a.borrow() == *b.borrow(),
            (Value::Matrix(a), Value::Matrix(b)) => *a.borrow() == *b.borrow(),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Vector(v) => {
                let v = v.borrow();
                write!(f, "vector[{}]", v.len())
            }
            Value::Matrix(m) => {
                let m = m.borrow();
                write!(f, "matrix[{}x{}]", m.rows(), m.cols())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_predicates() {
        assert!(Value::Int(1).is_scalar());
        assert!(Value::Float(1.5).is_scalar());
        assert!(!Value::new_vector(3).is_scalar());
        assert!(!Value::Unit.is_scalar());
    }

    #[test]
    fn mixed_numeric_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
    }

    #[test]
    fn vectors_compare_by_contents() {
        let a = Value::new_vector(2);
        let b = Value::new_vector(2);
        assert_eq!(a, b);
        if let Value::Vector(v) = &a {
            v.borrow_mut().write(0, Value::Int(1)).unwrap();
        }
        assert_ne!(a, b);
    }

    #[test]
    fn display_shapes() {
        assert_eq!(Value::new_matrix(2, 3).to_string(), "matrix[2x3]");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }
}
