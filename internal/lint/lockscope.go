package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockScope forbids holding a mutex across a blocking call in the
// socket-facing packages. The deadlock this prevents is concrete (see
// netpeer.Peer.mu's doc): a peer blocked on a TCP write while its state
// mutex is held stalls its own readLoop, and under backpressure a cycle
// of peers wedges permanently. The house discipline is PR 3's
// self-locking outbox — emit under the lock into a buffer, drain and
// send after unlocking.
//
// The analysis is a linear flow approximation per function: Lock/RLock
// adds the receiver to the held set, Unlock/RUnlock removes it, a
// deferred Unlock holds to function end, and any blocking operation —
// channel send/receive, select, or a call whose name is in the blocking
// set (Send, Flush, Wait, Dial*, Accept, Sleep, readFrame, writeFrame,
// …) — while the set is nonempty is a diagnostic. Branches that unlock
// early are credited linearly, so the check can under-report across
// exotic control flow but does not false-positive on the straight-line
// lock/unlock pairs the packages actually use. Nested function literals
// are separate scopes: they run on other goroutines or after return.
//
// A mutex whose purpose is to serialize the blocking call itself (a
// per-connection write lock) is the one legitimate exception; annotate
// it with //p2plint:allow lockscope -- <reason>.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "forbid blocking calls (send, net I/O, channel ops, Wait) while a mutex is held in netpeer/transport",
	Run:  runLockScope,
}

// lockScopePackages are the packages with real concurrency and real
// sockets, where a lock held across a blocking call can deadlock.
var lockScopePackages = []string{
	"internal/netpeer",
	"internal/transport",
}

// blockingCallNames are callee names that can block indefinitely on the
// network, a channel, or another goroutine.
var blockingCallNames = map[string]bool{
	"Send": true, "Flush": true,
	"Wait": true, "Sleep": true,
	"Dial": true, "DialTimeout": true, "DialTCP": true, "Accept": true,
	"readFrame": true, "writeFrame": true,
	"Read": true, "ReadFull": true, "Decode": true,
}

func runLockScope(pass *Pass) error {
	scoped := false
	for _, suffix := range lockScopePackages {
		if pathHasSuffix(pass.Pkg.Path(), suffix) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					scanLockScope(pass, n.Body)
				}
				return true
			case *ast.FuncLit:
				scanLockScope(pass, n.Body)
				return true
			}
			return true
		})
	}
	return nil
}

// lockState tracks which mutexes are held, keyed by the canonical
// spelling of the receiver expression.
type lockState struct {
	pass *Pass
	held map[string]bool
}

// scanLockScope runs the linear approximation over one function body.
// Nested FuncLits are skipped here (they are scanned as their own
// scopes by the caller's Inspect).
func scanLockScope(pass *Pass, body *ast.BlockStmt) {
	st := &lockState{pass: pass, held: make(map[string]bool)}
	st.stmts(body.List)
}

func (st *lockState) stmts(list []ast.Stmt) {
	for _, s := range list {
		st.stmt(s)
	}
}

func (st *lockState) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if recv, op, ok := mutexOp(st.pass, s.X); ok {
			switch op {
			case "Lock", "RLock":
				st.held[recv] = true
			case "Unlock", "RUnlock":
				delete(st.held, recv)
			}
			return
		}
		st.check(s.X)
	case *ast.DeferStmt:
		if _, op, ok := mutexOp(st.pass, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return // held to function end; subsequent statements stay covered
		}
		// Other defers run at return, outside this linear window.
	case *ast.SendStmt:
		if len(st.held) > 0 {
			st.report(s.Pos(), "channel send")
		}
	case *ast.SelectStmt:
		if len(st.held) > 0 {
			st.report(s.Pos(), "select")
			return
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				st.stmts(cc.Body)
			}
		}
	case *ast.BlockStmt:
		st.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			st.stmt(s.Init)
		}
		st.check(s.Cond)
		st.stmt(s.Body)
		if s.Else != nil {
			st.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st.stmt(s.Init)
		}
		if s.Cond != nil {
			st.check(s.Cond)
		}
		st.stmt(s.Body)
	case *ast.RangeStmt:
		st.check(s.X)
		st.stmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st.stmt(s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				st.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				st.stmts(cc.Body)
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			st.check(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			st.check(e)
		}
	case *ast.GoStmt:
		// Runs on another goroutine; its body is its own scope.
	case *ast.LabeledStmt:
		st.stmt(s.Stmt)
	}
}

// check inspects an expression for blocking operations while any mutex
// is held, without descending into nested function literals.
func (st *lockState) check(e ast.Expr) {
	if len(st.held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				st.report(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if name := calleeName(n); blockingCallNames[name] {
				st.report(n.Pos(), "call to "+name)
			}
		}
		return true
	})
}

func (st *lockState) report(pos token.Pos, what string) {
	st.pass.Reportf(pos, "%s while mutex %s is held: emit into a buffer and drain after unlocking",
		what, strings.Join(sortedKeys(st.held), ", "))
}

// sortedKeys returns a set's keys in sorted order for stable messages.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mutexOp recognizes recv.Lock/Unlock/RLock/RUnlock where recv's type
// is sync.Mutex or sync.RWMutex (possibly behind a pointer), returning
// the receiver's canonical spelling and the operation.
func mutexOp(pass *Pass, e ast.Expr) (recv, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return exprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}
