package protocol

import (
	"errors"
	"fmt"
)

// Op identifies the remote operation a request frame carries. Each op
// corresponds to one OpenCL API call forwarded by the wrapper library, plus
// a handful of session-management operations the paper's NMP handles
// (hello/handshake, status for the resource monitor, shutdown).
type Op uint16

// Operation codes. The numbering is part of the wire protocol; append only.
const (
	OpHello Op = iota + 1
	OpGetDeviceInfos
	OpCreateContext
	OpCreateQueue
	OpCreateBuffer
	OpWriteBuffer
	OpReadBuffer
	OpCopyBuffer
	OpBuildProgram
	OpCreateKernel
	OpEnqueueKernel
	OpFinishQueue
	OpQueryEvent
	OpRelease
	OpNodeStatus
	OpShutdown
	OpError // response-only: carries a remote error string
	OpBatch // envelope op carried by FrameBatch frames
	// Peer-to-peer data plane (host-planned node→node transfers).
	OpPushRange  // host→source node: ship a buffer range to a named peer
	OpPeerPush   // source node→peer node: the data deposit itself
	OpAwaitPush  // host→destination node: receive a deposited range
	OpCancelPush // host→destination node: abort a pending rendezvous
)

var opNames = map[Op]string{
	OpHello:          "Hello",
	OpGetDeviceInfos: "GetDeviceInfos",
	OpCreateContext:  "CreateContext",
	OpCreateQueue:    "CreateQueue",
	OpCreateBuffer:   "CreateBuffer",
	OpWriteBuffer:    "WriteBuffer",
	OpReadBuffer:     "ReadBuffer",
	OpCopyBuffer:     "CopyBuffer",
	OpBuildProgram:   "BuildProgram",
	OpCreateKernel:   "CreateKernel",
	OpEnqueueKernel:  "EnqueueKernel",
	OpFinishQueue:    "FinishQueue",
	OpQueryEvent:     "QueryEvent",
	OpRelease:        "Release",
	OpNodeStatus:     "NodeStatus",
	OpShutdown:       "Shutdown",
	OpError:          "Error",
	OpBatch:          "Batch",
	OpPushRange:      "PushRange",
	OpPeerPush:       "PeerPush",
	OpAwaitPush:      "AwaitPush",
	OpCancelPush:     "CancelPush",
}

// String names the op for logs and errors.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint16(o))
}

// Message is the interface implemented by every protocol message body.
type Message interface {
	// Op reports which operation this message belongs to.
	Op() Op
	// fields walks the message's fields in wire order: the one statement
	// of its layout, which encodes and decodes alike (see codec).
	fields(c *codec)
}

// DeviceType mirrors the OpenCL device-type bitfield restricted to the
// hardware classes HaoCL manages.
type DeviceType uint8

// Device types.
const (
	DeviceCPU DeviceType = iota + 1
	DeviceGPU
	DeviceFPGA
)

// String names the device type as in clinfo output.
func (t DeviceType) String() string {
	switch t {
	case DeviceCPU:
		return "CPU"
	case DeviceGPU:
		return "GPU"
	case DeviceFPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("DeviceType(%d)", uint8(t))
	}
}

// DeviceInfo describes one device exported by a node, combining the fields
// clGetDeviceInfo exposes with the performance-model parameters the
// heterogeneity-aware scheduler consumes (paper §I: "a scheduler requires
// device model and run-time information").
type DeviceInfo struct {
	ID               uint32
	Type             DeviceType
	Name             string
	Vendor           string
	ComputeUnits     uint32
	ClockMHz         uint32
	GlobalMemBytes   int64
	MaxWorkGroupSize int64
	// Shared reports whether multiple users may hold the device at once
	// (paper §III-D: the NMP receives a shared flag with each request).
	Shared bool

	// Performance-model parameters.
	PeakGFLOPS float64 // sustained arithmetic throughput, GFLOP/s
	MemBWGBps  float64 // device memory bandwidth, GB/s
	TDPWatts   float64 // board power for the energy model
}

func (i *DeviceInfo) fields(c *codec) {
	c.U32(&i.ID)
	c.U8((*uint8)(&i.Type))
	c.Str(&i.Name)
	c.Str(&i.Vendor)
	c.U32(&i.ComputeUnits)
	c.U32(&i.ClockMHz)
	c.I64(&i.GlobalMemBytes)
	c.I64(&i.MaxWorkGroupSize)
	c.Bool(&i.Shared)
	c.F64(&i.PeakGFLOPS)
	c.F64(&i.MemBWGBps)
	c.F64(&i.TDPWatts)
}

// Profile carries the four OpenCL event-profiling timestamps, in virtual
// nanoseconds (clGetEventProfilingInfo equivalents): Queued is the
// command's arrival at the node (SimArrival), Submit the instant its wire
// waits resolved and it entered the device lane, Start the instant the
// device began executing it, End its completion. Queued ≤ Submit ≤ Start
// ≤ End for lane-executed commands; [Queued,Submit] is
// registration/dependency wait, [Submit,Start] device queue wait,
// [Start,End] the busy interval — the split the host-side tracer renders
// as child spans. Cut-through forwarding pushes are the one exception:
// their planned departure (Submit = Start = DepartAt) may precede the
// control frame's booked arrival (Queued).
type Profile struct {
	Queued int64
	Submit int64
	Start  int64
	End    int64
}

func (p *Profile) fields(c *codec) {
	c.I64(&p.Queued)
	c.I64(&p.Submit)
	c.I64(&p.Start)
	c.I64(&p.End)
}

// DurationNS reports the modeled execution span (END-START) in nanoseconds.
func (p *Profile) DurationNS() int64 { return p.End - p.Start }

// ArgKind tags one kernel argument in an EnqueueKernel request.
type ArgKind uint8

// Argument kinds: a device buffer handle, an inline scalar value, or a
// request for per-work-group local memory (clSetKernelArg with nil pointer).
const (
	ArgBuffer ArgKind = iota + 1
	ArgScalar
	ArgLocal
)

// KernelArg is one bound kernel argument, as set by clSetKernelArg and
// shipped with the launch message.
type KernelArg struct {
	Kind     ArgKind
	BufferID uint64 // ArgBuffer: remote buffer handle
	Scalar   []byte // ArgScalar: raw little-endian value bytes
	LocalLen int64  // ArgLocal: bytes of local memory per work-group
}

func (a *KernelArg) fields(c *codec) {
	c.U8((*uint8)(&a.Kind))
	c.U64(&a.BufferID)
	c.Blob(&a.Scalar)
	c.I64(&a.LocalLen)
}

// --- Session management -----------------------------------------------

// PeerAddr names one cluster node and the address its NMP listens on. The
// host ships the full topology with Hello so nodes can dial each other
// directly for peer-to-peer transfers.
type PeerAddr struct {
	Name string
	Addr string
}

func (p *PeerAddr) fields(c *codec) {
	c.Str(&p.Name)
	c.Str(&p.Addr)
}

// HelloReq opens a session with a node. The user identity travels with the
// session so the NMP can enforce shared-device policies per user.
type HelloReq struct {
	UserID     string
	ClientName string
	// WireVersion is the protocol version the host speaks; a node refuses
	// any but its own Version with CodeUnsupported.
	WireVersion uint32
	// Peers lists every cluster node's listen address so this node can
	// dial siblings for PushRange traffic. Empty when the host sends none
	// (the node then rejects PushRange commands instead of data-plane
	// traffic hanging).
	Peers []PeerAddr
	// Epoch is the host's membership generation. It starts at 1 and is
	// bumped on every node death or (re)join; a repeat Hello on a live
	// session with a higher epoch tells the node to adopt the new peer
	// list, drop pooled peer connections, and cancel parked push
	// rendezvous (their counterpart may be gone). 0 never triggers the
	// membership-change path.
	Epoch uint64
}

// Op implements Message.
func (*HelloReq) Op() Op { return OpHello }

func (m *HelloReq) fields(c *codec) {
	c.Str(&m.UserID)
	c.Str(&m.ClientName)
	c.U32(&m.WireVersion)
	list(c, &m.Peers, peerList)
	c.U64(&m.Epoch)
}

// HelloResp acknowledges a session and advertises the node's devices.
type HelloResp struct {
	NodeName string
	Devices  []DeviceInfo
	// WireVersion is the protocol version the node speaks, always Version.
	WireVersion uint32
	// BootID identifies this incarnation of the node process: a restarted
	// node reports a fresh one. The host does not read it; a rejoining host
	// re-creates everything whether or not the process survived.
	BootID uint64
}

// Op implements Message.
func (*HelloResp) Op() Op { return OpHello }

func (m *HelloResp) fields(c *codec) {
	c.Str(&m.NodeName)
	list(c, &m.Devices, deviceList)
	c.U32(&m.WireVersion)
	c.U64(&m.BootID)
}

// GetDeviceInfosReq re-queries the device list (clGetDeviceIDs forwarding:
// the wrapper lib sends a device-ID request to every node and records the
// returned mapping, paper §III-C).
type GetDeviceInfosReq struct {
	TypeMask uint8 // bitwise OR of 1<<DeviceType values; 0 means all
}

// Op implements Message.
func (*GetDeviceInfosReq) Op() Op { return OpGetDeviceInfos }

func (m *GetDeviceInfosReq) fields(c *codec) { c.U8(&m.TypeMask) }

// GetDeviceInfosResp lists matching devices.
type GetDeviceInfosResp struct {
	Devices []DeviceInfo
}

// Op implements Message.
func (*GetDeviceInfosResp) Op() Op { return OpGetDeviceInfos }

func (m *GetDeviceInfosResp) fields(c *codec) { list(c, &m.Devices, deviceList) }

// --- Object lifecycle ---------------------------------------------------

// ObjectKind tags a remote object handle for Release.
type ObjectKind uint8

// Remote object kinds.
const (
	ObjContext ObjectKind = iota + 1
	ObjQueue
	ObjBuffer
	ObjProgram
	ObjKernel
	ObjEvent
)

// String names the object kind.
func (k ObjectKind) String() string {
	switch k {
	case ObjContext:
		return "context"
	case ObjQueue:
		return "queue"
	case ObjBuffer:
		return "buffer"
	case ObjProgram:
		return "program"
	case ObjKernel:
		return "kernel"
	case ObjEvent:
		return "event"
	default:
		return fmt.Sprintf("ObjectKind(%d)", uint8(k))
	}
}

// CreateReq is implemented by the requests that create an object: the
// host names the object itself (SetObjectID), the way it names events
// (CommandReq), so that it can pipeline commands naming the object before
// the node has responded. A zero ID asks the node to mint one (used by
// direct-session tests); either way the response carries the ID.
type CreateReq interface {
	Message
	SetObjectID(id uint64)
}

// CreateContextReq creates a context over a set of node-local devices.
type CreateContextReq struct {
	DeviceIDs []int64
	// SessionID and Tenant identify the host-side session the context
	// belongs to, so node-side accounting and logs can attribute objects to
	// tenants. 0/"" is one anonymous session.
	SessionID uint64
	Tenant    string
	// ID, when non-zero, is the host-assigned object ID (see CreateReq).
	ID uint64
}

// Op implements Message.
func (*CreateContextReq) Op() Op { return OpCreateContext }

// SetObjectID implements CreateReq.
func (m *CreateContextReq) SetObjectID(id uint64) { m.ID = id }

func (m *CreateContextReq) fields(c *codec) {
	c.Ints(&m.DeviceIDs)
	c.U64(&m.SessionID)
	c.Str(&m.Tenant)
	c.U64(&m.ID)
}

// ObjectResp returns a freshly created remote object handle.
type ObjectResp struct {
	ID uint64
}

// Op implements Message. ObjectResp answers several create ops; the op on
// the frame envelope disambiguates, so this reports 0.
func (*ObjectResp) Op() Op { return 0 }

func (m *ObjectResp) fields(c *codec) { c.U64(&m.ID) }

// CreateQueueReq creates an in-order command queue on one device.
type CreateQueueReq struct {
	ContextID uint64
	DeviceID  uint32
	Profiling bool
	// ID, when non-zero, is the host-assigned object ID (see CreateReq).
	ID uint64
}

// Op implements Message.
func (*CreateQueueReq) Op() Op { return OpCreateQueue }

// SetObjectID implements CreateReq.
func (m *CreateQueueReq) SetObjectID(id uint64) { m.ID = id }

func (m *CreateQueueReq) fields(c *codec) {
	c.U64(&m.ContextID)
	c.U32(&m.DeviceID)
	c.Bool(&m.Profiling)
	c.U64(&m.ID)
}

// CreateBufferReq allocates a device buffer.
type CreateBufferReq struct {
	ContextID uint64
	Size      int64
	// ID, when non-zero, is the host-assigned object ID (see CreateReq).
	ID uint64
}

// Op implements Message.
func (*CreateBufferReq) Op() Op { return OpCreateBuffer }

// SetObjectID implements CreateReq.
func (m *CreateBufferReq) SetObjectID(id uint64) { m.ID = id }

func (m *CreateBufferReq) fields(c *codec) {
	c.U64(&m.ContextID)
	c.I64(&m.Size)
	c.U64(&m.ID)
}

// ReleaseReq drops one reference to each of a vector of remote objects of
// one kind: ID, then every ID of More, in that order. A single release is
// the vector of length one, and encodes exactly as it did before More
// existed. The node attempts every ID and reports the first failure.
type ReleaseReq struct {
	Kind ObjectKind
	ID   uint64
	// More continues the vector; a single release omits it on the wire.
	More []uint64
}

// Op implements Message.
func (*ReleaseReq) Op() Op { return OpRelease }

// Len reports how many IDs the request releases.
func (m *ReleaseReq) Len() int { return 1 + len(m.More) }

// At returns the i-th ID of the vector.
func (m *ReleaseReq) At(i int) uint64 {
	if i == 0 {
		return m.ID
	}
	return m.More[i-1]
}

func (m *ReleaseReq) fields(c *codec) {
	c.U8((*uint8)(&m.Kind))
	c.U64(&m.ID)
	if dec := c.mode == decoding; dec && c.Remaining() == 0 || !dec && len(m.More) == 0 {
		return // a single release
	}
	list(c, &m.More, idList)
	if len(m.More) == 0 {
		c.fail() // an empty tail is not something a host sends
	}
}

// EmptyResp is the body of acknowledgement-only responses.
type EmptyResp struct{}

// Op implements Message.
func (*EmptyResp) Op() Op { return 0 }

func (*EmptyResp) fields(*codec) {}

// --- Data movement -------------------------------------------------------

// CommandReq is implemented by the enqueue requests that create an event:
// the host names the event itself (SetEventID) so it can pipeline further
// commands referencing that event before the node has responded. A zero
// EventID asks the node to assign one (used by direct-session tests).
type CommandReq interface {
	Message
	SetEventID(id uint64)
}

// WriteBufferReq transfers host data into a device buffer
// (clEnqueueWriteBuffer). SimArrival is the virtual instant at which the
// data finishes crossing the host NIC; the node starts the device-side copy
// no earlier than this, which is how network time composes with device time
// across the distributed virtual clocks.
type WriteBufferReq struct {
	QueueID    uint64
	BufferID   uint64
	Offset     int64
	Data       []byte
	SimArrival int64
	// EventID, when non-zero, is the host-assigned ID for the completion
	// event (see CommandReq).
	EventID uint64
	// ModelBytes, when positive, sizes the transfer in the device's
	// timing model instead of len(Data) — the logical-scale counterpart
	// of EnqueueKernelReq's cost override.
	ModelBytes int64
	// WaitEvents lists remote event IDs that must complete first.
	WaitEvents []int64
}

// Op implements Message.
func (*WriteBufferReq) Op() Op { return OpWriteBuffer }

// SetEventID implements CommandReq.
func (m *WriteBufferReq) SetEventID(id uint64) { m.EventID = id }

func (m *WriteBufferReq) fields(c *codec) {
	c.U64(&m.QueueID)
	c.U64(&m.BufferID)
	c.I64(&m.Offset)
	c.Blob(&m.Data)
	c.I64(&m.SimArrival)
	c.U64(&m.EventID)
	c.I64(&m.ModelBytes)
	c.Ints(&m.WaitEvents)
}

// EventResp returns the event created by an enqueue operation.
type EventResp struct {
	EventID uint64
	Profile Profile
}

// Op implements Message.
func (*EventResp) Op() Op { return 0 }

func (m *EventResp) fields(c *codec) {
	c.U64(&m.EventID)
	m.Profile.fields(c)
}

// ReadBufferReq transfers device data back to the host
// (clEnqueueReadBuffer).
type ReadBufferReq struct {
	QueueID    uint64
	BufferID   uint64
	Offset     int64
	Size       int64
	SimArrival int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID uint64
	// ModelBytes, when positive, sizes the transfer in the timing model.
	ModelBytes int64
	WaitEvents []int64
}

// Op implements Message.
func (*ReadBufferReq) Op() Op { return OpReadBuffer }

// SetEventID implements CommandReq.
func (m *ReadBufferReq) SetEventID(id uint64) { m.EventID = id }

func (m *ReadBufferReq) fields(c *codec) {
	c.U64(&m.QueueID)
	c.U64(&m.BufferID)
	c.I64(&m.Offset)
	c.I64(&m.Size)
	c.I64(&m.SimArrival)
	c.U64(&m.EventID)
	c.I64(&m.ModelBytes)
	c.Ints(&m.WaitEvents)
}

// ReadBufferResp carries the data and the completion event.
type ReadBufferResp struct {
	Data    []byte
	EventID uint64
	Profile Profile
	// Pooled, when non-nil, is the pooled buffer Data is a view of (a
	// node's read snapshot). It never travels: the connection writer that
	// sends the response frees it (Free) once the write carrying the frame
	// has returned.
	Pooled *Buf
}

// Op implements Message.
func (*ReadBufferResp) Op() Op { return OpReadBuffer }

// Free returns the pooled read snapshot, if any, and forgets it, so a
// second Free is a no-op. The connection writer calls it once the write
// carrying the response has returned; a response a failed connection
// drops is never freed, and its snapshot is left to the collector.
func (m *ReadBufferResp) Free() {
	m.Pooled.Free()
	m.Pooled = nil
}

func (m *ReadBufferResp) fields(c *codec) {
	c.Blob(&m.Data)
	c.U64(&m.EventID)
	m.Profile.fields(c)
}

// CopyBufferReq copies between two buffers on the same node
// (clEnqueueCopyBuffer).
type CopyBufferReq struct {
	QueueID   uint64
	SrcID     uint64
	DstID     uint64
	SrcOffset int64
	DstOffset int64
	Size      int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID    uint64
	WaitEvents []int64
}

// Op implements Message.
func (*CopyBufferReq) Op() Op { return OpCopyBuffer }

// SetEventID implements CommandReq.
func (m *CopyBufferReq) SetEventID(id uint64) { m.EventID = id }

func (m *CopyBufferReq) fields(c *codec) {
	c.U64(&m.QueueID)
	c.U64(&m.SrcID)
	c.U64(&m.DstID)
	c.I64(&m.SrcOffset)
	c.I64(&m.DstOffset)
	c.I64(&m.Size)
	c.U64(&m.EventID)
	c.Ints(&m.WaitEvents)
}

// --- Peer-to-peer data plane ---------------------------------------------

// PushRangeReq tells a source node to ship [Offset, Offset+Size) of one of
// its buffer replicas to a named peer. The host stays the control plane: it
// plans the transfer from its validity map and assigns the completion event,
// but the data itself crosses the node↔node link, never the host NIC.
type PushRangeReq struct {
	QueueID  uint64 // source-side queue whose lane serializes the egress
	BufferID uint64
	// PeerName/PeerBufferID locate the destination replica; the source
	// resolves PeerName against the address book learned at Hello time.
	PeerName     string
	PeerBufferID uint64
	// Token pairs this push with the peer's AwaitPush rendezvous entry.
	Token  uint64
	Offset int64
	Size   int64
	// SimArrival is the virtual instant the host's command frame reaches
	// the source node (control traffic still crosses the host NIC).
	SimArrival int64
	// DepartAt, when positive, books the peer-link egress at that virtual
	// instant without a device read: broadcast hops forward data that is
	// already in flight (cut-through), so only the first chunk's link time
	// gates the next hop. Zero means a migration push: read the range from
	// the device, then cross the link.
	DepartAt int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID uint64
	// ModelBytes, when positive, sizes the transfer in the timing model.
	ModelBytes int64
	// WaitEvents lists source-side events that must complete first (the
	// producer chain that made this replica range valid).
	WaitEvents []int64
}

// Op implements Message.
func (*PushRangeReq) Op() Op { return OpPushRange }

// SetEventID implements CommandReq.
func (m *PushRangeReq) SetEventID(id uint64) { m.EventID = id }

func (m *PushRangeReq) fields(c *codec) {
	c.U64(&m.QueueID)
	c.U64(&m.BufferID)
	c.Str(&m.PeerName)
	c.U64(&m.PeerBufferID)
	c.U64(&m.Token)
	c.I64(&m.Offset)
	c.I64(&m.Size)
	c.I64(&m.SimArrival)
	c.I64(&m.DepartAt)
	c.U64(&m.EventID)
	c.I64(&m.ModelBytes)
	c.Ints(&m.WaitEvents)
}

// PeerPushReq is the node→node data deposit: the source ships the bytes to
// the peer, which parks them in its rendezvous table until the host-issued
// AwaitPush command consumes them. Answered with EmptyResp (the ack is the
// source's signal that the peer owns the data).
type PeerPushReq struct {
	Token uint64
	Data  []byte
	// SimArrival is the virtual instant the data finishes crossing the
	// node↔node link, computed by the source against its egress link.
	SimArrival int64
}

// Op implements Message.
func (*PeerPushReq) Op() Op { return OpPeerPush }

func (m *PeerPushReq) fields(c *codec) {
	c.U64(&m.Token)
	c.Blob(&m.Data)
	c.I64(&m.SimArrival)
}

// AwaitPushReq tells the destination node to receive a deposited range into
// a buffer. It rides the normal registration-stage→lane machinery so the
// completion event chains like any other command; the exec handler blocks
// on the rendezvous entry for Token.
type AwaitPushReq struct {
	QueueID  uint64
	BufferID uint64
	Token    uint64
	Offset   int64
	Size     int64
	// SimArrival is the virtual arrival of the host's control frame.
	SimArrival int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID uint64
	// ModelBytes, when positive, sizes the device-side write in the model.
	ModelBytes int64
	// WaitEvents lists destination-side events that must complete first
	// (anti-dependencies on the replica being overwritten).
	WaitEvents []int64
}

// Op implements Message.
func (*AwaitPushReq) Op() Op { return OpAwaitPush }

// SetEventID implements CommandReq.
func (m *AwaitPushReq) SetEventID(id uint64) { m.EventID = id }

func (m *AwaitPushReq) fields(c *codec) {
	c.U64(&m.QueueID)
	c.U64(&m.BufferID)
	c.U64(&m.Token)
	c.I64(&m.Offset)
	c.I64(&m.Size)
	c.I64(&m.SimArrival)
	c.U64(&m.EventID)
	c.I64(&m.ModelBytes)
	c.Ints(&m.WaitEvents)
}

// CancelPushReq aborts a pending rendezvous: when the source side of a push
// fails, the host cancels the peer's AwaitPush so the dependent event chain
// fails instead of parking forever.
type CancelPushReq struct {
	Token  uint64
	Reason string
}

// Op implements Message.
func (*CancelPushReq) Op() Op { return OpCancelPush }

func (m *CancelPushReq) fields(c *codec) {
	c.U64(&m.Token)
	c.Str(&m.Reason)
}

// --- Programs and kernels -------------------------------------------------

// BuildProgramReq ships OpenCL C source for compilation on the node
// (clCreateProgramWithSource + clBuildProgram). The node's front end parses
// the source and resolves each kernel against its driver's kernel binaries.
type BuildProgramReq struct {
	ContextID uint64
	Source    string
	Options   string
	// ID, when non-zero, is the host-assigned object ID (see CreateReq).
	ID uint64
}

// Op implements Message.
func (*BuildProgramReq) Op() Op { return OpBuildProgram }

// SetObjectID implements CreateReq.
func (m *BuildProgramReq) SetObjectID(id uint64) { m.ID = id }

func (m *BuildProgramReq) fields(c *codec) {
	c.U64(&m.ContextID)
	c.Str(&m.Source)
	c.Str(&m.Options)
	c.U64(&m.ID)
}

// BuildProgramResp reports the program handle and build log.
type BuildProgramResp struct {
	ProgramID uint64
	Log       string
	Kernels   []string // kernel names found in the source
}

// Op implements Message.
func (*BuildProgramResp) Op() Op { return OpBuildProgram }

func (m *BuildProgramResp) fields(c *codec) {
	c.U64(&m.ProgramID)
	c.Str(&m.Log)
	list(c, &m.Kernels, nameList)
}

// CreateKernelReq instantiates one kernel from a built program.
type CreateKernelReq struct {
	ProgramID uint64
	Name      string
	// ID, when non-zero, is the host-assigned object ID (see CreateReq).
	ID uint64
}

// Op implements Message.
func (*CreateKernelReq) Op() Op { return OpCreateKernel }

// SetObjectID implements CreateReq.
func (m *CreateKernelReq) SetObjectID(id uint64) { m.ID = id }

func (m *CreateKernelReq) fields(c *codec) {
	c.U64(&m.ProgramID)
	c.Str(&m.Name)
	c.U64(&m.ID)
}

// EnqueueKernelReq launches an NDRange (clEnqueueNDRangeKernel). Arguments
// travel with the launch, matching the paper's message-per-API-call design.
type EnqueueKernelReq struct {
	QueueID    uint64
	KernelID   uint64
	Global     []int64
	Local      []int64
	Args       []KernelArg
	SimArrival int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID    uint64
	WaitEvents []int64
	// CostFlops/CostBytes, when positive, override the kernel's own cost
	// model. The experiment harness uses this to model paper-scale
	// problem sizes while executing functionally on reduced data.
	CostFlops int64
	CostBytes int64
}

// Op implements Message.
func (*EnqueueKernelReq) Op() Op { return OpEnqueueKernel }

// SetEventID implements CommandReq.
func (m *EnqueueKernelReq) SetEventID(id uint64) { m.EventID = id }

func (m *EnqueueKernelReq) fields(c *codec) {
	c.U64(&m.QueueID)
	c.U64(&m.KernelID)
	c.Ints(&m.Global)
	c.Ints(&m.Local)
	list(c, &m.Args, argList)
	c.I64(&m.SimArrival)
	c.U64(&m.EventID)
	c.Ints(&m.WaitEvents)
	c.I64(&m.CostFlops)
	c.I64(&m.CostBytes)
}

// --- Synchronization and status -------------------------------------------

// FinishQueueReq blocks until all commands on a queue complete (clFinish).
type FinishQueueReq struct {
	QueueID uint64
}

// Op implements Message.
func (*FinishQueueReq) Op() Op { return OpFinishQueue }

func (m *FinishQueueReq) fields(c *codec) { c.U64(&m.QueueID) }

// FinishQueueResp reports the queue's virtual completion time.
type FinishQueueResp struct {
	SimTime int64
}

// Op implements Message.
func (*FinishQueueResp) Op() Op { return OpFinishQueue }

func (m *FinishQueueResp) fields(c *codec) { c.I64(&m.SimTime) }

// QueryEventReq fetches an event's status and profiling timestamps.
type QueryEventReq struct {
	EventID uint64
}

// Op implements Message.
func (*QueryEventReq) Op() Op { return OpQueryEvent }

func (m *QueryEventReq) fields(c *codec) { c.U64(&m.EventID) }

// QueryEventResp carries the event state.
type QueryEventResp struct {
	Complete bool
	Profile  Profile
}

// Op implements Message.
func (*QueryEventResp) Op() Op { return OpQueryEvent }

func (m *QueryEventResp) fields(c *codec) {
	c.Bool(&m.Complete)
	m.Profile.fields(c)
}

// NodeStatusReq polls the node for the resource monitor.
type NodeStatusReq struct{}

// Op implements Message.
func (*NodeStatusReq) Op() Op { return OpNodeStatus }

func (*NodeStatusReq) fields(*codec) {}

// DeviceStatus is one device's runtime load snapshot.
type DeviceStatus struct {
	DeviceID      uint32
	BusyUntil     int64 // virtual instant the device's queues drain
	QueuedCmds    int64
	KernelsRun    int64
	FlopsDone     float64
	BytesMoved    float64
	EnergyJ       float64
	ActiveUsers   int64
	EWMAGFLOPS    float64 // observed sustained rate, for the scheduler
	EWMAKernelSec float64 // observed mean kernel duration
}

func (s *DeviceStatus) fields(c *codec) {
	c.U32(&s.DeviceID)
	c.I64(&s.BusyUntil)
	c.I64(&s.QueuedCmds)
	c.I64(&s.KernelsRun)
	c.F64(&s.FlopsDone)
	c.F64(&s.BytesMoved)
	c.F64(&s.EnergyJ)
	c.I64(&s.ActiveUsers)
	c.F64(&s.EWMAGFLOPS)
	c.F64(&s.EWMAKernelSec)
}

// NodeStatusResp is the monitor snapshot for every device on the node.
type NodeStatusResp struct {
	Devices []DeviceStatus
}

// Op implements Message.
func (*NodeStatusResp) Op() Op { return OpNodeStatus }

func (m *NodeStatusResp) fields(c *codec) { list(c, &m.Devices, statusList) }

// ShutdownReq asks the NMP to drain and exit.
type ShutdownReq struct{}

// Op implements Message.
func (*ShutdownReq) Op() Op { return OpShutdown }

func (*ShutdownReq) fields(*codec) {}

// The enqueue requests all carry host-assignable event IDs.
var (
	_ CommandReq = (*WriteBufferReq)(nil)
	_ CommandReq = (*ReadBufferReq)(nil)
	_ CommandReq = (*CopyBufferReq)(nil)
	_ CommandReq = (*EnqueueKernelReq)(nil)
	_ CommandReq = (*PushRangeReq)(nil)
	_ CommandReq = (*AwaitPushReq)(nil)
)

// ErrorResp carries a remote failure back to the caller.
type ErrorResp struct {
	Code    uint32
	Message string
}

// Op implements Message.
func (*ErrorResp) Op() Op { return OpError }

func (m *ErrorResp) fields(c *codec) {
	c.U32(&m.Code)
	c.Str(&m.Message)
}

// RemoteError is the host-side error produced from an ErrorResp.
type RemoteError struct {
	Op      Op
	Code    uint32
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s: %s (code %d)", e.Op, e.Message, e.Code)
}

// ErrRemote matches any remote error with errors.Is.
var ErrRemote = errors.New("protocol: remote error")

// Is reports whether target is ErrRemote.
func (e *RemoteError) Is(target error) bool { return target == ErrRemote }
