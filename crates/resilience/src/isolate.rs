//! The workspace's single sanctioned panic boundary.
//!
//! [`isolate`] runs a fallible closure under `catch_unwind`, converting a
//! panic into [`SolverError::Panicked`] with the panic message attached.
//! While an isolated closure runs, the default panic hook is replaced by a
//! filter that captures the message instead of printing a backtrace — an
//! injected or degenerate-input panic inside the fallback ladder is an
//! expected event, not console noise. Panics on threads that are *not*
//! inside an isolation scope still reach the previous hook untouched.
//!
//! The root `clippy.toml` disallows `std::panic::catch_unwind`, and
//! [`isolate`] is the one production site that carries an `#[expect]` for
//! it, so this module is the one place where unwinding and error
//! semantics meet.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::error::SolverError;

thread_local! {
    /// Whether the current thread is inside an [`isolate`] scope.
    static SUPPRESS: Cell<bool> = const { Cell::new(false) };
    /// The message of the most recent suppressed panic on this thread.
    static CAPTURED: RefCell<Option<String>> = const { RefCell::new(None) };
}

static INSTALL_FILTER: Once = Once::new();

fn install_filter_hook() {
    INSTALL_FILTER.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SUPPRESS.with(Cell::get) {
                let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                    (*s).to_owned()
                } else if let Some(s) = info.payload().downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_owned()
                };
                CAPTURED.with(|c| *c.borrow_mut() = Some(msg));
            } else {
                previous(info);
            }
        }));
    });
}

/// Restores the enclosing scope's suppression flag even if extraction of
/// the panic payload itself panics.
struct SuppressGuard {
    outer: bool,
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        // Fallible TLS access: `with` panics if the key is being torn
        // down, and a panicking Drop during unwind aborts the process.
        let _ = SUPPRESS.try_with(|s| s.set(self.outer));
    }
}

/// Runs `f`, containing any panic as [`SolverError::Panicked`].
///
/// `context` names the attempt (e.g. the tier label) and is prefixed to
/// the panic message. Nested isolation scopes compose: the innermost scope
/// catches first.
///
/// The closure is wrapped in `AssertUnwindSafe`: the ladder engine only
/// ever passes state that is either owned by the closure or discarded
/// wholesale when the attempt fails, so a broken invariant cannot leak
/// into later tiers.
///
/// # Errors
///
/// Returns `f`'s own error unchanged, or [`SolverError::Panicked`] if `f`
/// panicked.
#[expect(
    clippy::disallowed_methods,
    reason = "this is the workspace's one panic boundary"
)]
pub fn isolate<T>(
    context: &str,
    f: impl FnOnce() -> Result<T, SolverError>,
) -> Result<T, SolverError> {
    install_filter_hook();
    let _guard = SuppressGuard {
        outer: SUPPRESS.with(|s| s.replace(true)),
    };
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = CAPTURED
                .with(|c| c.borrow_mut().take())
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            Err(SolverError::Panicked {
                context: format!("{context}: {msg}"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_results_pass_through() {
        assert_eq!(isolate("t", || Ok(41)), Ok(41));
    }

    #[test]
    fn errors_pass_through() {
        let e = isolate::<()>("t", || {
            Err(SolverError::EmptyCurve {
                context: "inner".into(),
            })
        });
        assert_eq!(
            e,
            Err(SolverError::EmptyCurve {
                context: "inner".into()
            })
        );
    }

    #[test]
    fn panics_become_typed_errors_with_context() {
        let e = isolate::<()>("tier merlin", || panic!("injected boom"));
        match e {
            Err(SolverError::Panicked { context }) => {
                assert!(context.contains("tier merlin"), "{context}");
                assert!(context.contains("injected boom"), "{context}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn non_string_payloads_are_survivable() {
        let e = isolate::<()>("t", || std::panic::panic_any(7usize));
        assert!(matches!(e, Err(SolverError::Panicked { .. })));
    }

    #[test]
    fn nested_isolation_restores_the_outer_scope() {
        let outer = isolate("outer", || {
            let inner = isolate::<()>("inner", || panic!("inner boom"));
            assert!(matches!(inner, Err(SolverError::Panicked { .. })));
            // Still inside the outer scope: a second panic is caught too.
            Ok(1)
        });
        assert_eq!(outer, Ok(1));
    }
}
